//! KV-cache segments: the unit of prefix reuse.
//!
//! A [`KvSegment`] holds the per-layer keys and values of a contiguous block
//! of prompt tokens, together with the block tags and position IDs they were
//! computed under. The paper stores KV entries at *user/item granularity*
//! (§5.1): one segment per user profile, one segment per item. Segments can
//! be concatenated to assemble the attention context of a prefix-cached
//! forward pass.
//!
//! # Storage layout
//!
//! Keys and values are stored **transposed-packed** in [`ColBlock`]s
//! (plane-major: plane `r` holds component `r` of every token), which is
//! exactly the layout the attention kernels sweep. A segment is therefore
//! packed *once*, when its forward pass computes it; a prefix-cached
//! forward later attends over `[prefix ++ suffix]` through a zero-copy
//! [`bat_tensor::SplitCols`] view instead of re-gathering the cached
//! entries per layer per request (what `pack_kv_transposed` used to do).
//! This one-time packing is sound because the bipartite scheme pins every
//! block's base position (§4.2): a cached segment's planes never need
//! re-rotation or reordering when spliced behind a different prompt.

use crate::prompt::SegTag;
use bat_tensor::ColBlock;

// The fp16 converters moved to `bat_tensor::quant` so the quantized
// cold-tier blocks and this segment-level quantizer share one
// implementation; re-exported here to keep the original API.
pub use bat_tensor::quant::{f16_to_f32, f32_to_f16, fp16_round_trip};

/// Keys and values of one transformer layer for a block of tokens, stored
/// **transposed-packed**: two [`ColBlock`]s of `kv_dim` planes, one column
/// per token. The attention hot path reads the blocks directly (through
/// [`LayerKv::keys`]/[`LayerKv::values`]); the per-token accessors gather a
/// column and are meant for oracles, repair passes, and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerKv {
    kv_dim: usize,
    keys: ColBlock,
    values: ColBlock,
}

impl LayerKv {
    /// Creates an empty layer store for the given KV width.
    pub fn new(kv_dim: usize) -> Self {
        LayerKv {
            kv_dim,
            keys: ColBlock::new(kv_dim),
            values: ColBlock::new(kv_dim),
        }
    }

    /// KV width (number of planes).
    #[inline]
    pub fn kv_dim(&self) -> usize {
        self.kv_dim
    }

    /// Number of tokens stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no tokens are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The packed key planes — what the attention kernels sweep.
    #[inline]
    pub fn keys(&self) -> &ColBlock {
        &self.keys
    }

    /// The packed value planes.
    #[inline]
    pub fn values(&self) -> &ColBlock {
        &self.values
    }

    /// Appends one token's key and value rows (one strided scatter each —
    /// the only packing a segment ever undergoes).
    ///
    /// # Panics
    ///
    /// Panics if the rows do not have width `kv_dim`.
    pub fn push(&mut self, key: &[f32], value: &[f32]) {
        self.keys.push_col(key);
        self.values.push_col(value);
    }

    /// Key row of token `t`, gathered from the packed planes.
    #[inline]
    pub fn key(&self, t: usize) -> Vec<f32> {
        self.keys.col(t)
    }

    /// Value row of token `t`, gathered from the packed planes.
    #[inline]
    pub fn value(&self, t: usize) -> Vec<f32> {
        self.values.col(t)
    }

    /// Overwrites token `t`'s key and value rows (used by the PIC repair
    /// pass to splice recomputed entries into a cached segment).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range or the rows have the wrong width.
    pub fn set_row(&mut self, t: usize, key: &[f32], value: &[f32]) {
        assert!(t < self.len(), "token index out of range");
        self.keys.set_col(t, key);
        self.values.set_col(t, value);
    }

    /// Appends all rows of `other` (per-plane block copies, no per-token
    /// gather).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn extend(&mut self, other: &LayerKv) {
        assert_eq!(self.kv_dim, other.kv_dim, "kv width mismatch");
        self.keys.extend_from(&other.keys);
        self.values.extend_from(&other.values);
    }

    /// Drops all tokens, keeping the packed allocations for reuse — the
    /// forward workspace clears and refills its suffix segment per request.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.values.clear();
    }

    /// Ensures room for `tokens` more columns without reallocating.
    pub fn reserve(&mut self, tokens: usize) {
        self.keys.reserve_cols(tokens);
        self.values.reserve_cols(tokens);
    }

    /// Bytes of packed storage currently resident (keys + values,
    /// capacity-accounted) — what a cache pool charges for this layer.
    pub fn resident_bytes(&self) -> usize {
        self.keys.resident_bytes() + self.values.resident_bytes()
    }
}

/// The KV cache of a contiguous token block across all layers, plus the
/// block tags and positions the block was computed under.
#[derive(Debug, Clone, PartialEq)]
pub struct KvSegment {
    /// Per-layer key/value rows.
    pub layers: Vec<LayerKv>,
    /// Block tag of each token (needed to rebuild attention masks when the
    /// segment is spliced into a later prompt).
    pub segs: Vec<SegTag>,
    /// Position ID each token's RoPE rotation was computed at.
    pub pos: Vec<u32>,
}

impl KvSegment {
    /// Creates an empty segment for a model with `layers` layers of width
    /// `kv_dim`.
    pub fn empty(layers: usize, kv_dim: usize) -> Self {
        KvSegment {
            layers: (0..layers).map(|_| LayerKv::new(kv_dim)).collect(),
            segs: Vec::new(),
            pos: Vec::new(),
        }
    }

    /// Number of tokens in the segment.
    #[inline]
    pub fn len(&self) -> usize {
        self.segs.len()
    }

    /// Whether the segment holds no tokens.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Concatenates segments in order into one context segment, packed exactly.
    ///
    /// # Panics
    ///
    /// Panics if segments disagree on layer count or KV width.
    pub fn concat(parts: &[&KvSegment]) -> KvSegment {
        assert!(!parts.is_empty(), "concat needs at least one segment");
        let layers = &parts[0].layers;
        let mut out = KvSegment::empty(layers.len(), layers.first().map_or(0, |l| l.kv_dim));
        // One reservation a layer: fifty parts grown by doubling repack six times.
        let total = parts.iter().map(|part| part.len()).sum();
        out.layers.iter_mut().for_each(|l| l.reserve(total));
        for part in parts {
            assert_eq!(out.layers.len(), part.layers.len(), "layer count mismatch");
            for (dst, src) in out.layers.iter_mut().zip(&part.layers) {
                dst.extend(src);
            }
            out.segs.extend_from_slice(&part.segs);
            out.pos.extend_from_slice(&part.pos);
        }
        out
    }

    /// Maximum absolute element-wise difference from `other`, or `None` if
    /// shapes differ. Used by tests asserting cache-reuse exactness and by
    /// the PIC drift selector.
    pub fn max_abs_diff(&self, other: &KvSegment) -> Option<f32> {
        if self.len() != other.len() || self.layers.len() != other.layers.len() {
            return None;
        }
        let mut max = 0.0f32;
        for (a, b) in self.layers.iter().zip(&other.layers) {
            if a.kv_dim != b.kv_dim {
                return None;
            }
            for r in 0..a.kv_dim {
                for (x, y) in a.keys.plane(r).iter().zip(b.keys.plane(r)) {
                    max = max.max((x - y).abs());
                }
                for (x, y) in a.values.plane(r).iter().zip(b.values.plane(r)) {
                    max = max.max((x - y).abs());
                }
            }
        }
        Some(max)
    }

    /// Quantizes every key/value element through fp16 storage precision
    /// (§6.1: the KV cache is stored as FP16). Returns the maximum absolute
    /// quantization error introduced.
    pub fn quantize_fp16(&mut self) -> f32 {
        let mut max_err = 0.0f32;
        for layer in &mut self.layers {
            for r in 0..layer.kv_dim {
                for v in layer
                    .keys
                    .plane_mut(r)
                    .iter_mut()
                    .chain(layer.values.plane_mut(r).iter_mut())
                {
                    let q = fp16_round_trip(*v);
                    max_err = max_err.max((q - *v).abs());
                    *v = q;
                }
            }
        }
        max_err
    }

    /// Per-token KV drift against `other`: the max absolute difference of
    /// token `t`'s keys/values across all layers. Drives PIC selection.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn token_drift(&self, other: &KvSegment) -> Vec<f32> {
        assert_eq!(self.len(), other.len(), "token count mismatch");
        assert_eq!(self.layers.len(), other.layers.len(), "layer mismatch");
        let mut drift = vec![0.0f32; self.len()];
        // Plane-major sweep: cache-friendly over the packed layout, and the
        // per-token max is order-independent, so this matches the old
        // token-major walk exactly.
        for (a, b) in self.layers.iter().zip(&other.layers) {
            for r in 0..a.kv_dim {
                for ((slot, x), y) in drift.iter_mut().zip(a.keys.plane(r)).zip(b.keys.plane(r)) {
                    *slot = slot.max((x - y).abs());
                }
                for ((slot, x), y) in drift
                    .iter_mut()
                    .zip(a.values.plane(r))
                    .zip(b.values.plane(r))
                {
                    *slot = slot.max((x - y).abs());
                }
            }
        }
        drift
    }

    /// Reinitializes this segment for reuse as a forward workspace output:
    /// token metadata is dropped and every layer cleared, keeping packed
    /// allocations when the shape already matches (the steady-state case).
    pub fn reset_for(&mut self, layers: usize, kv_dim: usize) {
        let shape_ok =
            self.layers.len() == layers && self.layers.iter().all(|l| l.kv_dim == kv_dim);
        if shape_ok {
            for l in &mut self.layers {
                l.clear();
            }
        } else {
            self.layers = (0..layers).map(|_| LayerKv::new(kv_dim)).collect();
        }
        self.segs.clear();
        self.pos.clear();
    }

    /// Bytes of packed KV storage currently resident across all layers
    /// (capacity-accounted) — the figure a cache pool charges for storing
    /// this segment in its canonical packed form.
    pub fn packed_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(LayerKv::resident_bytes)
            .sum::<usize>()
            + self.segs.len() * std::mem::size_of::<SegTag>()
            + self.pos.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(vals: &[(f32, f32)]) -> KvSegment {
        let mut s = KvSegment::empty(1, 2);
        for &(k, v) in vals {
            s.layers[0].push(&[k, k], &[v, v]);
            s.segs.push(SegTag::User);
            s.pos.push(s.pos.len() as u32);
        }
        s
    }

    #[test]
    fn push_and_read_back() {
        let mut l = LayerKv::new(3);
        l.push(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]);
        l.push(&[7.0, 8.0, 9.0], &[1.0, 1.0, 1.0]);
        assert_eq!(l.len(), 2);
        assert_eq!(l.key(1), &[7.0, 8.0, 9.0]);
        assert_eq!(l.value(0), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn push_rejects_wrong_width() {
        let mut l = LayerKv::new(3);
        l.push(&[1.0], &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn concat_preserves_order() {
        let a = seg(&[(1.0, 10.0)]);
        let b = seg(&[(2.0, 20.0), (3.0, 30.0)]);
        let c = KvSegment::concat(&[&a, &b]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.layers[0].key(1), &[2.0, 2.0]);
        assert_eq!(c.layers[0].value(2), &[30.0, 30.0]);
    }

    /// `concat` is the clone-and-extend it replaced, column for column, and
    /// packs exactly — a part's spare capacity (a workspace's segment has
    /// some) does not reach the result, so `packed_bytes` is the content's.
    #[test]
    fn concat_equals_extending_one_part_at_a_time_and_packs_exactly() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        for case in 0..40 {
            let (layers, kv_dim) = (rng.gen_range(1..4), rng.gen_range(1..6));
            let parts: Vec<KvSegment> = (0..rng.gen_range(1..8))
                .map(|_| {
                    let mut part = KvSegment::empty(layers, kv_dim);
                    if case % 2 == 0 {
                        part.layers.iter_mut().for_each(|l| l.reserve(9));
                    }
                    for t in 0..rng.gen_range(0..5u32) {
                        for l in &mut part.layers {
                            let col: Vec<f32> = (0..2 * kv_dim).map(|_| rng.gen()).collect();
                            l.push(&col[..kv_dim], &col[kv_dim..]);
                        }
                        part.segs.push(SegTag::Item(t));
                        part.pos.push(t);
                    }
                    part
                })
                .collect();
            let mut want = parts[0].clone();
            for part in &parts[1..] {
                for (dst, src) in want.layers.iter_mut().zip(&part.layers) {
                    dst.extend(src);
                }
                want.segs.extend_from_slice(&part.segs);
                want.pos.extend_from_slice(&part.pos);
            }
            let got = KvSegment::concat(&parts.iter().collect::<Vec<_>>());
            assert_eq!(got, want, "case {case}");
            let exact = got.len() * (layers * 2 * kv_dim * 4 + 4 + std::mem::size_of::<SegTag>());
            assert_eq!(got.packed_bytes(), exact, "case {case}");
            assert_eq!(got.clone().packed_bytes(), exact, "case {case}");
        }
    }

    #[test]
    fn diff_detects_changes() {
        let a = seg(&[(1.0, 1.0), (2.0, 2.0)]);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), Some(0.0));
        b.layers[0] = {
            let mut l = LayerKv::new(2);
            l.push(&[1.0, 1.0], &[1.0, 1.0]);
            l.push(&[2.5, 2.0], &[2.0, 2.0]);
            l
        };
        assert_eq!(a.max_abs_diff(&b), Some(0.5));
        let drift = a.token_drift(&b);
        assert_eq!(drift[0], 0.0);
        assert_eq!(drift[1], 0.5);
    }

    #[test]
    fn fp16_conversion_properties() {
        // Exactly representable values survive.
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0] {
            assert_eq!(fp16_round_trip(v), v, "{v}");
        }
        // Specials.
        assert_eq!(fp16_round_trip(f32::INFINITY), f32::INFINITY);
        assert_eq!(fp16_round_trip(f32::NEG_INFINITY), f32::NEG_INFINITY);
        assert!(fp16_round_trip(f32::NAN).is_nan());
        // Overflow saturates to infinity; deep underflow flushes to zero.
        assert_eq!(fp16_round_trip(1e6), f32::INFINITY);
        assert_eq!(fp16_round_trip(1e-10), 0.0);
        // Subnormal half range is preserved approximately.
        let sub = 3.0e-7f32;
        let q = fp16_round_trip(sub);
        assert!(q > 0.0 && (q - sub).abs() / sub < 0.25, "{q}");
        // Idempotence and relative error bound (2^-11) in the normal range.
        for i in 0..2000 {
            let v = (i as f32 - 1000.0) * 0.0137 + 0.0071;
            let q = fp16_round_trip(v);
            assert_eq!(fp16_round_trip(q), q, "idempotent at {v}");
            if v.abs() > 1e-4 {
                assert!(((q - v) / v).abs() < 5e-4, "rel err at {v}: {q}");
            }
        }
    }

    #[test]
    fn quantize_fp16_bounds_error_and_is_idempotent() {
        let mut seg = seg(&[(0.1234567, 0.7654321), (1.5, -2.25)]);
        let err = seg.quantize_fp16();
        assert!(err > 0.0 && err < 1e-3, "quantization error {err}");
        let mut again = seg.clone();
        assert_eq!(again.quantize_fp16(), 0.0, "already quantized");
        assert_eq!(again, seg);
    }

    #[test]
    fn diff_rejects_shape_mismatch() {
        let a = seg(&[(1.0, 1.0)]);
        let b = seg(&[(1.0, 1.0), (2.0, 2.0)]);
        assert!(a.max_abs_diff(&b).is_none());
    }
}
