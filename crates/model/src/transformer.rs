//! The GR transformer forward pass, with prefix-cache splicing.
//!
//! [`GrModel::forward`] runs the suffix tokens of a prompt against an
//! optional pre-computed [`KvSegment`] prefix, exactly as a serving engine
//! with prefix caching does (§3.2): projections are computed **only for the
//! suffix tokens**, and attention runs over the concatenation of cached and
//! fresh keys/values.

use crate::config::GrModelConfig;
use crate::kv::{KvSegment, LayerKv};
use crate::mask::{read_out_rows, runs, MaskBuf};
use crate::profile::{Laps, Stage, StageProfile};
use crate::prompt::{SegTag, TokenSeq};
use crate::weights::Weights;
use bat_exec::{parallel_weighted_row_bands, with_thread_scratch};
use bat_tensor::ops::{
    axpy, dot, fast_silu_in_place, fast_silu_mul_in_place, rms_norm, rms_norm_into, silu,
    stable_softmax_in_place,
};
use bat_tensor::{
    matmul_rows, stage_is_pooled, GroupAttention, Matrix, RopeTable, Silu, Softmax, SplitCols,
    TILE_ROWS,
};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// Result of a forward pass: what ranking reads of it, and the suffix KV.
///
/// Ranking reads the final hidden state of the suffix's **read-out rows** —
/// its last token (the §4.2 discriminant) and every [`SegTag::Disc`] token —
/// and no other. Every layer but the last runs every row (a row's hidden
/// state feeds the next layer's keys and values, so `suffix_kv` is complete);
/// the last layer and the final norm run the read-out rows alone, bit for bit
/// as a forward that finished every row would.
#[derive(Debug, Clone)]
pub struct ForwardOutput {
    /// Final (RMS-normalized) hidden states of the read-out rows, in order.
    hidden: Matrix,
    /// Which suffix rows those are, ascending.
    rows: Vec<usize>,
    /// `hidden`'s last row as a `hidden × 1` matrix: the head's right operand.
    head: Matrix,
    /// The model's embedding table (`vocab × hidden`): a handle, not a copy.
    embedding: Arc<Matrix>,
    /// KV cache of the suffix tokens in the canonical transposed-packed
    /// layout, ready to be stored for reuse.
    pub suffix_kv: KvSegment,
}

const READ_OUT_RULE: &str =
    "only read-out rows have a final hidden state: the last suffix token and every Disc token";

impl ForwardOutput {
    /// An empty output placeholder (workspace initial state).
    pub fn empty() -> Self {
        ForwardOutput {
            hidden: Matrix::zeros(0, 0),
            rows: Vec::new(),
            head: Matrix::zeros(0, 0),
            embedding: Arc::new(Matrix::zeros(0, 0)),
            suffix_kv: KvSegment::empty(0, 0),
        }
    }

    /// Final hidden state of read-out row `t` (a view); panics for any other.
    pub fn hidden(&self, t: usize) -> &[f32] {
        let i = self.rows.binary_search(&t);
        let i = i.unwrap_or_else(|_| panic!("hidden({t}): {READ_OUT_RULE}"));
        self.hidden.row(i)
    }

    /// Final hidden state of the last suffix token, the §4.2 discriminant.
    pub fn hidden_last(&self) -> &[f32] {
        self.hidden(*self.rows.last().expect(READ_OUT_RULE))
    }

    /// Ends a forward whose last layer left the read-out rows in `h`: their
    /// final norm, the head's operand, and the handle to `embedding`.
    fn read_out(&mut self, h: &Matrix, gain: &[f32], embedding: &Arc<Matrix>) {
        self.hidden.reshape_for_overwrite(self.rows.len(), h.cols());
        for (i, &t) in self.rows.iter().enumerate() {
            rms_norm_into(h.row(t), gain, 1e-6, self.hidden.row_mut(i));
        }
        let last = self.rows.len().checked_sub(1);
        let last = last.map_or(&[][..], |i| self.hidden.row(i));
        self.head.reshape_for_overwrite(last.len(), 1);
        self.head.as_mut_slice().copy_from_slice(last);
        self.embedding = Arc::clone(embedding);
    }

    /// The tied output head over the embedding rows in `rows`: `⟨E_i,
    /// hidden_last⟩` each, as a GEMM element's chain — `acc = fma(E_i[k], h[k],
    /// acc)` from `0.0`, ascending `k` — so a logit has the same bits alone.
    fn head_product(&self, rows: &[f32]) -> Vec<f32> {
        assert!(self.head.rows() > 0, "output head: {READ_OUT_RULE}");
        let mut logits = vec![0.0; rows.len() / self.head.rows()];
        matmul_rows(rows, self.head.rows(), &self.head, &mut logits);
        logits
    }

    /// Vocabulary logits of the last token (tied output head), for the tests
    /// and tools that compare them; serving asks for `candidate_scores`.
    pub fn logits(&self) -> Vec<f32> {
        self.head_product(self.embedding.as_slice())
    }

    /// The paper's relevance scores (§2.2): softmax over the logits of the
    /// candidate identifier tokens `v_i`, in candidate order — no other logit.
    pub fn candidate_scores(&self, candidate_tokens: &[u32]) -> Vec<f32> {
        let row = |&t: &u32| self.embedding.row(t as usize);
        let rows: Vec<&[f32]> = candidate_tokens.iter().map(row).collect();
        let mut s = self.head_product(&rows.concat());
        stable_softmax_in_place(&mut s);
        s
    }
}

/// Reusable scratch for [`GrModel::forward_with`]: every intermediate of the
/// forward pass — norms, projections, attention rows, unit activations, mask
/// run lists, and the output itself — lives here and is re-shaped (capacity
/// kept) instead of re-allocated. Each token's key and value sit side by
/// side in `kv`, one packed product; `q` and `act` are as wide as the
/// layers' unit makes them (`q`, or `q|u`; `gate|up`, or the gated
/// aggregate).
/// Keep one per worker and the steady-state forward performs **zero heap
/// allocations** after the first call at a given shape; the attention
/// kernel's score rows are thread-local via
/// [`bat_exec::with_thread_scratch`], so pool workers (persistent daemon
/// threads) warm theirs once.
pub struct ForwardWorkspace {
    tags: Vec<SegTag>,
    mask: MaskBuf,
    h: Matrix,
    xn: Matrix,
    q: Matrix,
    kv: Matrix,
    attn: Matrix,
    o: Matrix,
    act: Matrix,
    out: ForwardOutput,
    profile: Option<Box<StageProfile>>,
}

impl ForwardWorkspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        let m = || Matrix::zeros(0, 0);
        ForwardWorkspace {
            profile: None,
            tags: Vec::new(),
            mask: MaskBuf::default(),
            h: m(),
            xn: m(),
            q: m(),
            kv: m(),
            attn: m(),
            o: m(),
            act: m(),
            out: ForwardOutput::empty(),
        }
    }

    /// The last forward's output.
    pub fn output(&self) -> &ForwardOutput {
        &self.out
    }

    /// Starts (or restarts from zero) timing [`GrModel`] forwards through
    /// this workspace by stage; [`ForwardWorkspace::stage_profile`] reads the
    /// totals. Off — one untaken branch per stage — until this is called.
    pub fn profile_stages(&mut self) {
        self.profile = Some(Box::default());
    }

    /// Time per [`Stage`] since [`ForwardWorkspace::profile_stages`], summed
    /// over forwards and, inside the pooled stage, over threads.
    pub fn stage_profile(&self) -> Option<[(Stage, Duration); Stage::ALL.len()]> {
        self.profile.as_deref().map(StageProfile::read)
    }
}

impl Default for ForwardWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

/// A runnable Generative Recommender.
///
/// ```
/// use bat_model::{GrModel, GrModelConfig, MaskScheme, PromptLayout, Weights};
/// use bat_types::PrefixKind;
///
/// let model = GrModel::new(Weights::random(GrModelConfig::tiny(64), 1));
/// let layout = PromptLayout::new(MaskScheme::Bipartite);
/// let seq = layout.build(
///     PrefixKind::Item,
///     &[40, 41],                       // user profile tokens
///     &[vec![0, 50], vec![1, 51]],     // candidate items
///     &[60, 61],                       // instruction block
/// );
/// let scores = model.forward(&seq, None).candidate_scores(&[0, 1]);
/// assert!((scores.iter().sum::<f32>() - 1.0).abs() < 1e-5);
/// ```
#[derive(Debug, Clone)]
pub struct GrModel {
    cfg: GrModelConfig,
    /// Token embedding table, `vocab × hidden`, shared with every output.
    embedding: Arc<Matrix>,
    layers: Vec<Layer>,
    /// Final RMSNorm gain.
    final_norm: Vec<f32>,
    rope: RopeTable,
}

/// One layer's weights in the layout the forward reads, built once with the
/// model: projections that read the same input are packed side by side and
/// run as one product — fewer, fatter stages for the pool, one pass over the
/// activations. A column of a packed product has the bits of the unpacked
/// one (an output element's arithmetic does not depend on its neighbours).
/// Every layer of a model has the same kind of [`Unit`].
#[derive(Debug, Clone)]
pub(crate) struct Layer {
    pub(crate) attn_norm: Vec<f32>,
    /// `hidden × q_dim`; with the pointwise unit `wq|wu`, `hidden × (q_dim +
    /// hidden)`: the elementwise gate `U` beside the query.
    pub(crate) wq: Matrix,
    /// `wk|wv`, `hidden × 2·kv_dim`.
    pub(crate) wkv: Matrix,
    pub(crate) wo: Matrix,
    pub(crate) unit: Unit,
}

/// What a layer does around its attention: the one thing that tells the
/// LLM-style transformer from the HSTU-style model ([`crate::hstu`]).
#[derive(Debug, Clone)]
pub(crate) enum Unit {
    /// Softmax attention, `WO`, residual, then the SwiGLU FFN and its residual.
    Swiglu {
        ffn_norm: Vec<f32>,
        /// `w_gate|w_up`, `hidden × 2·ffn_dim`.
        w_gate_up: Matrix,
        w_down: Matrix,
        /// The FFN is structurally zero (any of gate/up/down is an all-zero
        /// matrix, so the FFN output is exactly zero — true for the analytic
        /// routed construction) and the whole block can be skipped.
        ffn_zero: bool,
    },
    /// HSTU's pointwise aggregated attention: SiLU on every projection,
    /// `A_ij = SiLU(⟨q_i, k_j⟩/√d) / |allowed(i)|` in place of softmax, and
    /// `WO(norm(A·V) ⊙ U)` with gain `norm` into the residual; no FFN.
    Pointwise { norm: Vec<f32> },
}

/// `[a | b]`: the two matrices' rows side by side.
pub(crate) fn side_by_side(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), a.cols() + b.cols());
    for r in 0..a.rows() {
        let (left, right) = out.row_mut(r).split_at_mut(a.cols());
        left.copy_from_slice(a.row(r));
        right.copy_from_slice(b.row(r));
    }
    out
}

impl GrModel {
    /// Wraps weights into a runnable model, precomputing the RoPE table, the
    /// structural FFN-zero flags and the packed projections.
    ///
    /// Projection weights are stored `in × out` row-major, which is exactly
    /// the layout [`Matrix::matmul`] wants for `X·W` — no transpose exists
    /// anywhere on the forward path.
    pub fn new(weights: Weights) -> Self {
        let Weights {
            cfg,
            embedding,
            layers,
            final_norm,
        } = weights;
        let layers = layers
            .into_iter()
            .map(|lw| Layer {
                wkv: side_by_side(&lw.wk, &lw.wv),
                attn_norm: lw.attn_norm,
                wq: lw.wq,
                wo: lw.wo,
                unit: Unit::Swiglu {
                    ffn_zero: lw.w_gate.is_zero() || lw.w_up.is_zero() || lw.w_down.is_zero(),
                    w_gate_up: side_by_side(&lw.w_gate, &lw.w_up),
                    ffn_norm: lw.ffn_norm,
                    w_down: lw.w_down,
                },
            })
            .collect();
        Self::from_layers(cfg, embedding, layers, final_norm)
    }

    /// A model over layers already in the forward's layout.
    pub(crate) fn from_layers(
        cfg: GrModelConfig,
        embedding: Matrix,
        layers: Vec<Layer>,
        final_norm: Vec<f32>,
    ) -> Self {
        GrModel {
            rope: RopeTable::new(cfg.head_dim, cfg.max_positions, cfg.rope_base),
            cfg,
            embedding: Arc::new(embedding),
            layers,
            final_norm,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &GrModelConfig {
        &self.cfg
    }

    /// Computes the KV segment of a standalone token block (offline item or
    /// user prefix pre-computation, §5.2 Step 3): [`GrModel::forward`]'s
    /// `suffix_kv`, bit for bit, as the forward that reads out no row — the
    /// last layer's keys and values depend on the hidden states that enter
    /// it, so its attention and FFN and the final norm have nothing to run.
    ///
    /// A short block (an item is a few tokens) runs in a workspace its
    /// thread keeps — a fresh one, a dozen matrices and a mask, costs more
    /// than such a block's forward — and gets the compacting clone of the
    /// segment; a long one builds its own rather than leave megabytes idle
    /// on the thread.
    pub fn compute_kv(&self, seq: &TokenSeq) -> KvSegment {
        /// Longest block whose workspace (≈ 6 KB a row at the proxy shape)
        /// stays with the thread.
        const KEPT_ROWS: usize = 32;
        if seq.len() > KEPT_ROWS {
            let mut ws = ForwardWorkspace::new();
            self.forward_impl(seq, None, &mut ws, &[]);
            return ws.out.suffix_kv;
        }
        // Taken out while in use, not borrowed: a pooled stage runs other
        // tasks on this thread while it waits, and one may be a `compute_kv`.
        type Slot = Option<Box<ForwardWorkspace>>;
        let mut ws = with_thread_scratch(|slot: &mut Slot| slot.take()).unwrap_or_default();
        self.forward_impl(seq, None, &mut ws, &[]);
        let kv = ws.out.suffix_kv.clone();
        with_thread_scratch(|slot: &mut Slot| *slot = Some(ws));
        kv
    }

    /// Runs the transformer over `suffix`, optionally splicing a cached
    /// `prefix` KV segment in front of it.
    ///
    /// The attention mask is rebuilt from the block tags stored in the
    /// prefix segment plus the suffix tags, under the suffix's
    /// [`crate::MaskScheme`]; cached keys keep the position IDs they were computed
    /// at, which is sound precisely because the bipartite scheme fixes each
    /// block's base position (§4.2).
    ///
    /// # Execution
    ///
    /// A layer is **one** pool dispatch over blocks of suffix rows (DESIGN
    /// §5d). Its keys and values are already in the layer's packed
    /// plane-major blocks, so a row depends on nothing but its own
    /// activations and the KV: each block takes its rows from the query
    /// projection to the unit's last residual on one thread, then computes
    /// the *next* layer's keys and values of those rows (norm, one K|V
    /// product, RoPE; `GrModel::layer_rows`), which the caller appends to
    /// the next layer's blocks once the dispatch is over. One more row stage
    /// before the first layer computes layer 0's; the last layer runs the
    /// read-out rows ([`ForwardOutput`]) alone. Attention is
    /// **run-structured**: the bipartite mask is block-structured, so a
    /// token's allowed keys are a few contiguous runs, and
    /// [`GroupAttention::attend`] scores, softmaxes and accumulates over
    /// exactly those, in *compact* rows whose reduction order is a function
    /// of the compact index alone — a row's arithmetic depends on its
    /// allowed keys and nothing else, so an item block attends
    /// bit-identically standalone and inside a full prompt, whatever the
    /// prefix/suffix split. The blocks are cut by the rows' work; a row has
    /// the same bits whichever block computes it, so logits are
    /// **bit-identical for any thread count**.
    ///
    /// # Panics
    ///
    /// Panics if `suffix` is empty, if a position ID exceeds the RoPE table,
    /// or if the prefix segment's layer count does not match the model.
    pub fn forward(&self, suffix: &TokenSeq, prefix: Option<&KvSegment>) -> ForwardOutput {
        let mut ws = ForwardWorkspace::new();
        self.forward_impl(suffix, prefix, &mut ws, &suffix.segs);
        ws.out
    }

    /// [`GrModel::forward`] into a caller-owned [`ForwardWorkspace`]: every
    /// intermediate and the output itself are re-shaped in place, so a
    /// warmed workspace makes the steady-state forward **allocation-free**
    /// (the zero-alloc integration test pins this). Bit-identical to
    /// [`GrModel::forward`].
    pub fn forward_with<'w>(
        &self,
        suffix: &TokenSeq,
        prefix: Option<&KvSegment>,
        ws: &'w mut ForwardWorkspace,
    ) -> &'w ForwardOutput {
        self.forward_impl(suffix, prefix, ws, &suffix.segs);
        &ws.out
    }

    /// `read`: the tags the read-out rows come from — the suffix's, or none.
    fn forward_impl(
        &self,
        suffix: &TokenSeq,
        prefix: Option<&KvSegment>,
        ws: &mut ForwardWorkspace,
        read: &[SegTag],
    ) {
        assert!(!suffix.is_empty(), "forward needs at least one token");
        let cfg = &self.cfg;
        if let Some(p) = prefix {
            assert_eq!(p.layers.len(), cfg.layers, "prefix layer count mismatch");
        }
        let p_len = prefix.map_or(0, KvSegment::len);
        let s_len = suffix.len();
        let kv_dim = cfg.kv_dim();

        let ForwardWorkspace {
            tags,
            mask,
            h,
            xn,
            q,
            kv: fresh_kv,
            attn,
            o,
            act,
            out,
            profile,
            ..
        } = ws;
        out.rows.clear();
        out.rows.extend(read_out_rows(read));
        let (read_out, suffix_kv) = (&out.rows, &mut out.suffix_kv);
        let profile = profile.as_deref();
        let mut laps = Laps::start(profile);

        // Combined tags over [prefix ++ suffix] and each suffix token's
        // allowed key runs. Tags and scheme are layer- and head-independent,
        // so these are computed exactly once per forward.
        tags.clear();
        tags.extend(prefix.map_or(&[][..], |p| &p.segs));
        tags.extend_from_slice(&suffix.segs);
        mask.build(suffix.scheme, tags, p_len);
        let mask = &*mask;

        // The scratch matrices the row blocks share, each written before it
        // is read; `h` starts as the suffix tokens' embeddings.
        let (hidden, q_dim) = (cfg.hidden_dim, cfg.q_dim());
        let first = &self.layers[0];
        let act_cols = match &first.unit {
            Unit::Swiglu { w_gate_up, .. } => w_gate_up.cols(),
            Unit::Pointwise { .. } => hidden,
        };
        let widths = [hidden, hidden, first.wq.cols(), q_dim, hidden, act_cols];
        for (m, cols) in [&mut *h, xn, q, attn, o, act].into_iter().zip(widths) {
            m.reshape_for_overwrite(s_len, cols);
        }
        fresh_kv.reshape_for_overwrite(s_len, 2 * kv_dim);
        for (t, &tok) in suffix.tokens.iter().enumerate() {
            h.row_mut(t)
                .copy_from_slice(self.embedding.row(tok as usize));
        }

        suffix_kv.reset_for(cfg.layers, kv_dim);
        suffix_kv.segs.extend_from_slice(&suffix.segs);
        suffix_kv.pos.extend_from_slice(&suffix.pos);
        for lkv in suffix_kv.layers.iter_mut() {
            lkv.reserve(s_len);
        }
        laps.lap(Stage::Setup);

        // Layer 0's keys and values, cut by count: every row's are alike.
        let (alike, work) = (|_: usize| 1, s_len * self.kv_products());
        let mats = [&mut *h, xn, fresh_kv];
        run_rows(mats, 0..s_len, alike, work, |rows, [h, xn, kv]| {
            let mut laps = Laps::start(profile);
            self.kv_rows(first, &suffix.pos, rows, h, xn, kv);
            laps.lap(Stage::KvRows);
        });
        push_kv(fresh_kv, &mut suffix_kv.layers[0]);
        laps.lap(Stage::RowsWall);

        for (l, lw) in self.layers.iter().enumerate() {
            // Attention reads the cached prefix block and the pushed suffix
            // block through a zero-copy [`SplitCols`] view — the canonical
            // packed layout means nothing is gathered or repacked per
            // request — over each token's allowed key runs.
            let sl = &suffix_kv.layers[l];
            let kv = GroupAttention {
                keys: SplitCols::new(prefix.map(|p| p.layers[l].keys()), sl.keys()),
                vals: SplitCols::new(prefix.map(|p| p.layers[l].values()), sl.values()),
                head_dim: cfg.head_dim,
                scale: 1.0 / (cfg.head_dim as f32).sqrt(),
            };
            let next = self.layers.get(l + 1);
            let row_weight = self.row_weight(next.is_some());
            let mut rows_stage = |run: Range<usize>| {
                let work = self.rows_work(mask, &run, next.is_some());
                let mats = [&mut *h, xn, q, attn, o, act, fresh_kv];
                let cost = |t: usize| mask.allowed()[t] + row_weight;
                run_rows(mats, run, cost, work, |rows, block| {
                    self.layer_rows(lw, next, &kv, mask, &suffix.pos, rows, block, profile)
                });
            };
            // Every row feeds the next layer's K|V; past the last, few are read.
            if next.is_some() {
                rows_stage(0..s_len);
                push_kv(fresh_kv, &mut suffix_kv.layers[l + 1]);
                laps.lap(Stage::RowsWall);
            } else {
                runs(read_out).for_each(rows_stage);
                laps.lap(Stage::LastRowsWall);
            }
        }
        out.read_out(h, &self.final_norm, &self.embedding);
        laps.lap(Stage::ReadOut);
    }

    /// Layer `lw`'s keys and values of suffix rows `rows`, whose rows of the
    /// workspace matrices `h, xn, kv` are `h, xn, kv`, on the calling
    /// thread: the attention norm into `xn` (the layer's query product reads
    /// it), the K|V product, SiLU for the pointwise unit, and RoPE on the
    /// key half. Row by row but for the product, which gives a row the same
    /// bits in any block.
    fn kv_rows(
        &self,
        lw: &Layer,
        pos: &[u32],
        rows: Range<usize>,
        h: &[f32],
        xn: &mut [f32],
        kv: &mut [f32],
    ) {
        let (hidden, kv_dim) = (self.cfg.hidden_dim, self.cfg.kv_dim());
        for (x, out) in h.chunks_exact(hidden).zip(xn.chunks_exact_mut(hidden)) {
            rms_norm_into(x, &lw.attn_norm, 1e-6, out);
        }
        matmul_rows(xn, hidden, &lw.wkv, kv);
        let pointwise = matches!(lw.unit, Unit::Pointwise { .. });
        for (t, row) in rows.zip(kv.chunks_exact_mut(2 * kv_dim)) {
            if pointwise {
                fast_silu_in_place(row);
            }
            self.rope.apply_heads(&mut row[..kv_dim], pos[t] as usize);
        }
    }

    /// Layer `lw` for suffix rows `rows`, whose rows of the workspace
    /// matrices `h, xn, q, attn, o, act, kv` are `block`, on the calling
    /// thread: everything from the query projection to the unit's last
    /// residual, then the `next` layer's keys and values of these rows
    /// ([`GrModel::kv_rows`]). Per row this is the arithmetic of the stage
    /// order a single block over all rows runs — the products give a row
    /// the same bits in any block, and everything else is row by row.
    #[allow(clippy::too_many_arguments)]
    fn layer_rows(
        &self,
        lw: &Layer,
        next: Option<&Layer>,
        kv: &GroupAttention<'_>,
        mask: &MaskBuf,
        pos: &[u32],
        rows: Range<usize>,
        block: [&mut [f32]; 7],
        profile: Option<&StageProfile>,
    ) {
        let cfg = &self.cfg;
        let (hidden, q_dim, ffn) = (cfg.hidden_dim, cfg.q_dim(), cfg.ffn_dim);
        let tile = cfg.gqa_group() * cfg.head_dim;
        let [h, xn, q, attn, o, act, fresh_kv] = block;
        let mut laps = Laps::start(profile);

        // A `q` row is the query, then whatever the unit packed beside it.
        let q_cols = lw.wq.cols();
        let pointwise = matches!(lw.unit, Unit::Pointwise { .. });
        matmul_rows(xn, hidden, &lw.wq, q);
        for (t, row) in rows.clone().zip(q.chunks_exact_mut(q_cols)) {
            if pointwise {
                fast_silu_in_place(row);
            }
            self.rope.apply_heads(&mut row[..q_dim], pos[t] as usize);
        }
        laps.lap(Stage::Q);

        attn.fill(0.0);
        // One scratch borrow per row block; each pool worker (a persistent
        // daemon thread) warms its score rows once.
        with_thread_scratch(|scores: &mut Vec<f32>| {
            let rows = rows
                .clone()
                .zip(q.chunks_exact(q_cols).zip(attn.chunks_exact_mut(q_dim)));
            for (t, (q, out)) in rows {
                let groups = q[..q_dim]
                    .chunks_exact(tile)
                    .zip(out.chunks_exact_mut(tile));
                for (kv_head, (q, out)) in groups.enumerate() {
                    match lw.unit {
                        Unit::Swiglu { .. } => {
                            kv.attend::<Softmax>(kv_head, mask.runs(t), q, scores, out)
                        }
                        Unit::Pointwise { .. } => {
                            kv.attend::<Silu>(kv_head, mask.runs(t), q, scores, out)
                        }
                    }
                }
            }
        });
        laps.lap(Stage::Attention);

        match &lw.unit {
            Unit::Swiglu {
                ffn_norm,
                w_gate_up,
                w_down,
                ffn_zero,
            } => {
                matmul_rows(attn, q_dim, &lw.wo, o);
                axpy(h, 1.0, o);
                laps.lap(Stage::Wo);

                // SwiGLU FFN; skipped when structurally zero. The activations
                // overwrite the gate half of each gate|up row, which the down
                // projection then reads in place.
                if !*ffn_zero {
                    for (x, out) in h.chunks_exact(hidden).zip(xn.chunks_exact_mut(hidden)) {
                        rms_norm_into(x, ffn_norm, 1e-6, out);
                    }
                    matmul_rows(xn, hidden, w_gate_up, act);
                    laps.lap(Stage::GateUp);
                    for row in act.chunks_exact_mut(2 * ffn) {
                        let (gate, up) = row.split_at_mut(ffn);
                        fast_silu_mul_in_place(gate, up);
                    }
                    laps.lap(Stage::Silu);
                    matmul_rows(act, 2 * ffn, w_down, o);
                    axpy(h, 1.0, o);
                    laps.lap(Stage::Down);
                }
            }
            Unit::Pointwise { norm } => {
                // The aggregate over the context size, normed and gated by
                // `U` (the tail of the row's `q`) into `act`, is what `WO` reads.
                let gated = attn
                    .chunks_exact_mut(q_dim)
                    .zip(act.chunks_exact_mut(hidden));
                let rows = rows.clone();
                for (t, (qu, (agg, gated))) in rows.zip(q.chunks_exact(q_cols).zip(gated)) {
                    let inv = 1.0 / mask.allowed()[t].max(1) as f32;
                    agg.iter_mut().for_each(|x| *x *= inv);
                    rms_norm_into(agg, norm, 1e-6, gated);
                    for (g, u) in gated.iter_mut().zip(&qu[q_dim..]) {
                        *g *= u;
                    }
                }
                matmul_rows(act, hidden, &lw.wo, o);
                axpy(h, 1.0, o);
                laps.lap(Stage::Wo);
            }
        }
        if let Some(next) = next {
            self.kv_rows(next, pos, rows, h, xn, fresh_kv);
            laps.lap(Stage::KvRows);
        }
    }

    /// Multiply-adds of a suffix row's K|V product in one layer.
    fn kv_products(&self) -> usize {
        let wkv = &self.layers[0].wkv;
        wkv.rows() * wkv.cols()
    }

    /// Multiply-adds of the products one suffix row goes through in a
    /// layer's row stage: Q (or Q|U), output, the unit's own, and with
    /// `next_kv` — in every layer but the last — the next layer's K|V.
    fn row_products(&self, next_kv: bool) -> usize {
        let lw = &self.layers[0];
        let size = |w: &Matrix| w.rows() * w.cols();
        let unit = match &lw.unit {
            Unit::Swiglu {
                w_gate_up, w_down, ..
            } => size(w_gate_up) + size(w_down),
            Unit::Pointwise { .. } => 0,
        };
        let kv = if next_kv { self.kv_products() } else { 0 };
        size(&lw.wq) + size(&lw.wo) + unit + kv
    }

    /// What a suffix row's row stage costs beyond its allowed keys, in
    /// keys: the unit the stage's row blocks are balanced in. From the two
    /// rates of the one-thread stage profile at the ranking shape (`batctl
    /// bench --stages`; EXPERIMENTS.md, PR 22): a row pays ≈ 8.1 ns per
    /// allowed key — `q_dim` = 96 multiply-adds each for the score and for
    /// P·V, ≈ 24 G/s — on top of ≈ 0.9 µs however few keys it has (≈ 57
    /// keys per KV head), and ≈ 1.7 µs for the 92 k multiply-adds of its four
    /// products with their norms and activations, ≈ 54 G/s: 2.3 times the
    /// attention's rate. So an item row of 194 keys weighs 516 and an
    /// instruction row of 309 weighs 631, as they cost 4.2 and 5.1 µs (the
    /// next layer's K|V product adds 3 k multiply-adds and 7 keys). The 57
    /// keys and the 2.3 were fitted on the SwiGLU unit; the pointwise unit
    /// borrows them, and like the dispatch threshold they move speed only.
    fn row_weight(&self, next_kv: bool) -> u64 {
        let product_keys = 10 * self.row_products(next_kv) / (46 * self.cfg.q_dim());
        (product_keys + 57 * self.cfg.kv_heads) as u64
    }

    /// Multiply-adds of a layer's row stage over suffix rows `run`.
    fn rows_work(&self, mask: &MaskBuf, run: &Range<usize>, next_kv: bool) -> usize {
        let keys = mask.allowed()[run.clone()].iter().sum::<u64>() as usize;
        keys * self.cfg.q_dim() + run.len() * self.row_products(next_kv)
    }

    /// The row stages of `forward(suffix, prefix)` by name — layer 0's K|V
    /// rows, a layer's rows and the last layer's (its widest dispatch) —
    /// with the multiply-add count the pool dispatch of each is gated on. A
    /// test that compares thread counts asserts
    /// [`bat_tensor::stage_is_pooled`] on these: below the threshold every
    /// width runs the same inline code, a vacuous comparison.
    #[doc(hidden)]
    pub fn stage_work(
        &self,
        suffix: &TokenSeq,
        prefix: Option<&KvSegment>,
    ) -> [(&'static str, usize); 3] {
        let mask = MaskBuf::of(suffix, prefix);
        let read_out: Vec<usize> = read_out_rows(&suffix.segs).collect();
        let widest = runs(&read_out).map(|run| self.rows_work(&mask, &run, false));
        [
            ("K|V", suffix.len() * self.kv_products()),
            ("rows", self.rows_work(&mask, &(0..suffix.len()), true)),
            ("read-out rows", widest.max().unwrap_or(0)),
        ]
    }

    /// The row blocks a layer's row stage of `forward(suffix, prefix)` is
    /// cut into at `threads` threads when pooled — in every layer but the
    /// last, and in the last — for a test to assert where the cuts fall.
    #[doc(hidden)]
    pub fn stage_blocks(
        &self,
        suffix: &TokenSeq,
        prefix: Option<&KvSegment>,
        threads: usize,
    ) -> [Vec<Range<usize>>; 2] {
        let mask = MaskBuf::of(suffix, prefix);
        let read_out: Vec<usize> = read_out_rows(&suffix.segs).collect();
        let cut = |run: Range<usize>, next_kv: bool| {
            let (start, row_weight) = (run.start, self.row_weight(next_kv));
            let cost = |r: usize| mask.allowed()[start + r] + row_weight;
            let blocks = bat_exec::weighted_row_blocks(run.len(), cost, TILE_ROWS, threads);
            blocks
                .into_iter()
                .map(move |b| start + b.start..start + b.end)
        };
        let full = cut(0..suffix.len(), true).collect();
        [
            full,
            runs(&read_out).flat_map(|run| cut(run, false)).collect(),
        ]
    }

    /// The seed's serial per-token forward pass, kept as the oracle the
    /// batched [`GrModel::forward`] is equivalence-tested against: one token
    /// at a time, separate multiplies and adds, libm `exp`, for either
    /// unit. (It reads the packed matrices — a column's arithmetic is
    /// the unpacked one's.) Not a production path.
    #[doc(hidden)]
    pub fn forward_reference(
        &self,
        suffix: &TokenSeq,
        prefix: Option<&KvSegment>,
    ) -> ForwardOutput {
        assert!(!suffix.is_empty(), "forward needs at least one token");
        let cfg = &self.cfg;
        if let Some(p) = prefix {
            assert_eq!(p.layers.len(), cfg.layers, "prefix layer count mismatch");
        }
        let p_len = prefix.map_or(0, KvSegment::len);
        let s_len = suffix.len();

        let tag_at = |g: usize| -> SegTag {
            if g < p_len {
                prefix.unwrap().segs[g]
            } else {
                suffix.segs[g - p_len]
            }
        };

        let mut h: Vec<Vec<f32>> = suffix
            .tokens
            .iter()
            .map(|&t| self.embedding.row(t as usize).to_vec())
            .collect();

        let mut suffix_kv = KvSegment::empty(cfg.layers, cfg.kv_dim());
        suffix_kv.segs = suffix.segs.clone();
        suffix_kv.pos = suffix.pos.clone();

        let scale = 1.0 / (cfg.head_dim as f32).sqrt();
        let group = cfg.gqa_group();

        for (l, lw) in self.layers.iter().enumerate() {
            let mut qs: Vec<Vec<f32>> = Vec::with_capacity(s_len);
            for (t, ht) in h.iter().enumerate() {
                let xn = rms_norm(ht, &lw.attn_norm, 1e-6);
                let mut q = lw.wq.vecmul_sparse(&xn);
                let mut k = lw.wkv.vecmul_sparse(&xn);
                if let Unit::Pointwise { .. } = lw.unit {
                    q.iter_mut().chain(&mut k).for_each(|x| *x = silu(*x));
                }
                let v = k.split_off(cfg.kv_dim());
                let pos = suffix.pos[t] as usize;
                for qh in 0..cfg.query_heads {
                    self.rope
                        .apply(&mut q[qh * cfg.head_dim..(qh + 1) * cfg.head_dim], pos);
                }
                for kh in 0..cfg.kv_heads {
                    self.rope
                        .apply(&mut k[kh * cfg.head_dim..(kh + 1) * cfg.head_dim], pos);
                }
                suffix_kv.layers[l].push(&k, &v);
                qs.push(q);
            }

            for t in 0..s_len {
                let g_q = p_len + t;
                let q = &qs[t];
                let mut attn_out = vec![0.0f32; cfg.q_dim()];
                for qh in 0..cfg.query_heads {
                    let kv_head = qh / group;
                    let q_slice = &q[qh * cfg.head_dim..(qh + 1) * cfg.head_dim];
                    let mut idx: Vec<usize> = Vec::with_capacity(g_q + 1);
                    let mut logits: Vec<f32> = Vec::with_capacity(g_q + 1);
                    for g_k in 0..=g_q {
                        if !allowed(suffix.scheme, tag_at(g_q), tag_at(g_k)) {
                            continue;
                        }
                        let key_row = if g_k < p_len {
                            prefix.unwrap().layers[l].key(g_k)
                        } else {
                            suffix_kv.layers[l].key(g_k - p_len)
                        };
                        let ks = &key_row[kv_head * cfg.head_dim..(kv_head + 1) * cfg.head_dim];
                        idx.push(g_k);
                        logits.push(dot(q_slice, ks) * scale);
                    }
                    match lw.unit {
                        Unit::Swiglu { .. } => stable_softmax_in_place(&mut logits),
                        Unit::Pointwise { .. } => {
                            let n = logits.len() as f32;
                            logits.iter_mut().for_each(|s| *s = silu(*s) / n);
                        }
                    }
                    let out = &mut attn_out[qh * cfg.head_dim..(qh + 1) * cfg.head_dim];
                    for (w, &g_k) in logits.iter().zip(&idx) {
                        if *w == 0.0 {
                            continue;
                        }
                        let val_row = if g_k < p_len {
                            prefix.unwrap().layers[l].value(g_k)
                        } else {
                            suffix_kv.layers[l].value(g_k - p_len)
                        };
                        let vs = &val_row[kv_head * cfg.head_dim..(kv_head + 1) * cfg.head_dim];
                        axpy(out, *w, vs);
                    }
                }
                if let Unit::Pointwise { norm } = &lw.unit {
                    attn_out = rms_norm(&attn_out, norm, 1e-6);
                    let u = &q[cfg.q_dim()..];
                    attn_out.iter_mut().zip(u).for_each(|(a, u)| *a *= u);
                }
                let proj = lw.wo.vecmul_sparse(&attn_out);
                for (a, b) in h[t].iter_mut().zip(&proj) {
                    *a += b;
                }

                let Unit::Swiglu {
                    ffn_norm,
                    w_gate_up,
                    w_down,
                    ..
                } = &lw.unit
                else {
                    continue;
                };
                let xn2 = rms_norm(&h[t], ffn_norm, 1e-6);
                let gate_up = w_gate_up.vecmul_sparse(&xn2);
                let (gate, up) = gate_up.split_at(cfg.ffn_dim);
                let act: Vec<f32> = gate.iter().zip(up).map(|(&g, &u)| silu(g) * u).collect();
                let down = w_down.vecmul_sparse(&act);
                for (a, b) in h[t].iter_mut().zip(&down) {
                    *a += b;
                }
            }
        }

        // Every row ran every layer; the output keeps the read-out rows.
        let rows: Vec<&[f32]> = h.iter().map(Vec::as_slice).collect();
        let mut out = ForwardOutput::empty();
        out.rows.extend(read_out_rows(&suffix.segs));
        out.suffix_kv = suffix_kv;
        out.read_out(&Matrix::from_rows(&rows), &self.final_norm, &self.embedding);
        out
    }

    /// The multi-discriminant read-out (§4.2's "one discriminant token per
    /// item" extension): for a suffix laid out by
    /// [`crate::PromptLayout::build_per_item_discriminants`], scores
    /// candidate `i` as `softmax_i ⟨E[v_i], h(Disc(i))⟩` — each candidate
    /// from its own discriminant's hidden state.
    ///
    /// # Panics
    ///
    /// Panics if the suffix does not contain exactly one [`SegTag::Disc`]
    /// token per candidate.
    pub fn candidate_scores_per_discriminant(
        &self,
        suffix: &TokenSeq,
        out: &ForwardOutput,
        candidate_tokens: &[u32],
    ) -> Vec<f32> {
        let mut scores = vec![f32::NEG_INFINITY; candidate_tokens.len()];
        let mut found = 0usize;
        for (t, &tag) in suffix.segs.iter().enumerate() {
            if let SegTag::Disc(i) = tag {
                let i = i as usize;
                assert!(i < candidate_tokens.len(), "discriminant beyond candidates");
                scores[i] = dot(
                    self.embedding.row(candidate_tokens[i] as usize),
                    out.hidden(t),
                );
                found += 1;
            }
        }
        assert_eq!(
            found,
            candidate_tokens.len(),
            "one discriminant per candidate required"
        );
        stable_softmax_in_place(&mut scores);
        scores
    }
}

use crate::prompt::allowed_tags as allowed;

/// A row stage over suffix rows `run`: `f(rows, block)` for blocks of them
/// (`block`: the rows' slices of `mats`), cut by `cost(row)` on the pool if
/// `work` multiply-adds repay a dispatch, else one inline call. The
/// forward's one door to the pool (`tests/one_pool_door.rs`).
fn run_rows<const N: usize>(
    mats: [&mut Matrix; N],
    run: Range<usize>,
    cost: impl Fn(usize) -> u64,
    work: usize,
    f: impl Fn(Range<usize>, [&mut [f32]; N]) + Sync,
) {
    let grain = if stage_is_pooled(work) { 1 } else { usize::MAX };
    let bands = mats.map(|m| {
        let c = m.cols();
        (&mut m.as_mut_slice()[run.start * c..run.end * c], c)
    });
    let cost = |r: usize| cost(run.start + r);
    parallel_weighted_row_bands(bands, run.len(), cost, grain, TILE_ROWS, |rows, block| {
        f(run.start + rows.start..run.start + rows.end, block)
    });
}

/// Appends every row of `kv` — a key, then its value — to `layer`'s packed
/// blocks, in row order.
fn push_kv(kv: &Matrix, layer: &mut LayerKv) {
    for t in 0..kv.rows() {
        let (key, value) = kv.row(t).split_at(kv.cols() / 2);
        layer.push(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::{MaskScheme, PromptLayout};
    use bat_types::PrefixKind;
    use proptest::prelude::*;

    fn tiny_model(seed: u64) -> GrModel {
        GrModel::new(Weights::random(GrModelConfig::tiny(64), seed))
    }

    /// One model of each [`Unit`], for the tests that hold for any layer.
    fn both_units(seed: u64) -> [(&'static str, GrModel); 2] {
        let matched = GrModelConfig {
            query_heads: 2,
            ..GrModelConfig::tiny(64)
        };
        let hstu = crate::HstuModel::random(matched, seed);
        [("swiglu", tiny_model(seed)), ("pointwise", (*hstu).clone())]
    }

    fn parts() -> (Vec<u32>, Vec<Vec<u32>>, Vec<u32>) {
        (
            vec![40, 41, 42, 43, 44],
            vec![vec![0, 50], vec![1, 51], vec![2, 52], vec![3, 53]],
            vec![60, 61],
        )
    }

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn forward_produces_finite_logits() {
        let model = tiny_model(3);
        let (u, i, s) = parts();
        let seq = PromptLayout::new(MaskScheme::Bipartite).build(PrefixKind::User, &u, &i, &s);
        let out = model.forward(&seq, None);
        assert_eq!(out.logits().len(), 64);
        assert!(out.logits().iter().all(|v| v.is_finite()));
        let scores = out.candidate_scores(&[0, 1, 2, 3]);
        assert!((scores.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    /// The fundamental prefix-caching identity (§3.2): computing the prompt
    /// in one shot equals computing the prefix KV first and splicing it.
    #[test]
    fn prefix_cached_forward_equals_recompute_up() {
        let model = tiny_model(11);
        let (u, i, s) = parts();
        let layout = PromptLayout::new(MaskScheme::Bipartite);
        let seq = layout.build(PrefixKind::User, &u, &i, &s);

        let full = model.forward(&seq, None);

        let (user_block, rest) = seq.split_at(u.len());
        let prefix_kv = model.compute_kv(&user_block);
        let cached = model.forward(&rest, Some(&prefix_kv));

        assert!(max_diff(full.hidden_last(), cached.hidden_last()) < 1e-4);
        assert!(max_diff(&full.logits(), &cached.logits()) < 1e-3);
    }

    /// Same identity in the Item-as-prefix ordering, with the item block as
    /// the cached prefix.
    #[test]
    fn prefix_cached_forward_equals_recompute_ip() {
        let model = tiny_model(12);
        let (u, i, s) = parts();
        let layout = PromptLayout::new(MaskScheme::Bipartite);
        let seq = layout.build(PrefixKind::Item, &u, &i, &s);
        let item_block_len = i.iter().map(Vec::len).sum::<usize>();

        let full = model.forward(&seq, None);
        let (item_block, rest) = seq.split_at(item_block_len);
        let prefix_kv = model.compute_kv(&item_block);
        let cached = model.forward(&rest, Some(&prefix_kv));

        assert!(max_diff(full.hidden_last(), cached.hidden_last()) < 1e-4);
        assert!(max_diff(&full.logits(), &cached.logits()) < 1e-3);
    }

    /// §4.2/§4.3: under the bipartite scheme, an item's KV computed
    /// standalone equals its KV inside the full IP prompt — the property
    /// that makes cross-user item-cache sharing sound. Bit for bit: a
    /// row's attention depends on its allowed keys alone, and an item's
    /// allowed keys are its own block wherever the block sits.
    #[test]
    fn item_kv_is_context_independent_under_bipartite() {
        let model = tiny_model(13);
        let (u, i, s) = parts();
        let layout = PromptLayout::new(MaskScheme::Bipartite);
        let seq = layout.build(PrefixKind::Item, &u, &i, &s);
        let full = model.forward(&seq, None);

        // Item 2 occupies tokens 4..6 of the prompt.
        let standalone = layout.item_standalone(2, &i[2], 0);
        let solo_kv = model.compute_kv(&standalone);
        for l in 0..model.config().layers {
            for (t, g) in (4..6).enumerate() {
                let (in_prompt, solo) = (&full.suffix_kv.layers[l], &solo_kv.layers[l]);
                assert_eq!(bits(&in_prompt.key(g)), bits(&solo.key(t)));
                assert_eq!(bits(&in_prompt.value(g)), bits(&solo.value(t)));
            }
        }
    }

    /// The run-length encoded mask admits exactly the keys the per-pair
    /// rule admits, as ascending non-adjacent runs — over both schemes,
    /// per-item discriminants, and any prefix split.
    #[test]
    fn mask_runs_match_the_pairwise_rule() {
        let items = [vec![0, 50], vec![1], vec![2, 52, 53]];
        for scheme in [MaskScheme::Bipartite, MaskScheme::NaiveCausal] {
            let layout = PromptLayout::new(scheme);
            let seqs = [
                layout.build(PrefixKind::User, &[40, 41, 42], &items, &[60, 61]),
                layout.build(PrefixKind::Item, &[40, 41, 42], &items, &[60]),
                layout.build_per_item_discriminants(
                    PrefixKind::Item,
                    &[40],
                    &items,
                    &[60],
                    &[61, 62, 63],
                ),
            ];
            for seq in &seqs {
                for p_len in [0, 1, seq.len() / 2, seq.len() - 1] {
                    let mut mask = MaskBuf::default();
                    mask.build(scheme, &seq.segs, p_len);
                    for t in 0..seq.len() - p_len {
                        let want: Vec<usize> = (0..seq.len())
                            .filter(|&k| seq.allowed(p_len + t, k))
                            .collect();
                        let runs = mask.runs(t);
                        let got: Vec<usize> = runs.iter().flat_map(|r| r.clone()).collect();
                        assert_eq!(got, want, "{scheme:?} split {p_len} row {t}");
                        assert_eq!(mask.allowed()[t], want.len() as u64);
                        assert!(runs.windows(2).all(|w| w[0].end < w[1].start));
                        assert!(runs.iter().all(|r| !r.is_empty()));
                    }
                }
            }
        }
    }

    /// Under the naive causal scheme the same item's KV *does* depend on
    /// context (positions shift and earlier tokens leak in), which is the
    /// paper's §3.3 argument for why vanilla prefix caching cannot share
    /// item caches.
    #[test]
    fn item_kv_is_context_dependent_under_naive() {
        let model = tiny_model(13);
        let (u, i, s) = parts();
        let layout = PromptLayout::new(MaskScheme::NaiveCausal);
        let seq = layout.build(PrefixKind::Item, &u, &i, &s);
        let full = model.forward(&seq, None);

        let standalone = layout.item_standalone(2, &i[2], 0);
        let solo_kv = model.compute_kv(&standalone);
        // Item 2 occupies tokens 4..6; its position there is 4, not 0.
        let mut differs = false;
        for l in 0..model.config().layers {
            if max_diff(&full.suffix_kv.layers[l].key(4), &solo_kv.layers[l].key(0)) > 1e-3 {
                differs = true;
            }
        }
        assert!(differs, "naive-causal item KV should be context-dependent");
    }

    /// Candidate order inside the item block must not matter under the
    /// bipartite scheme: permuting items permutes scores identically.
    #[test]
    fn item_permutation_invariance_of_scores() {
        let model = tiny_model(21);
        let (u, i, s) = parts();
        let layout = PromptLayout::new(MaskScheme::Bipartite);

        let seq = layout.build(PrefixKind::Item, &u, &i, &s);
        let scores = model.forward(&seq, None).candidate_scores(&[0, 1, 2, 3]);

        let permuted: Vec<Vec<u32>> = vec![i[2].clone(), i[0].clone(), i[3].clone(), i[1].clone()];
        let seq_p = layout.build(PrefixKind::Item, &u, &permuted, &s);
        let scores_p = model.forward(&seq_p, None).candidate_scores(&[2, 0, 3, 1]);

        assert!(max_diff(&[scores[2], scores[0], scores[3], scores[1]], &scores_p) < 1e-4);
    }

    /// §6.1 stores KV in FP16: a prefix cache quantized to half precision
    /// must not change candidate scores materially.
    #[test]
    fn fp16_prefix_cache_barely_moves_scores() {
        let model = tiny_model(17);
        let (u, i, s) = parts();
        let layout = PromptLayout::new(MaskScheme::Bipartite);
        let seq = layout.build(PrefixKind::Item, &u, &i, &s);
        let item_block: usize = i.iter().map(Vec::len).sum();
        let (head, rest) = seq.split_at(item_block);

        let exact_kv = model.compute_kv(&head);
        let mut fp16_kv = exact_kv.clone();
        let err = fp16_kv.quantize_fp16();
        assert!(err > 0.0, "quantization should not be a no-op");

        let exact = model
            .forward(&rest, Some(&exact_kv))
            .candidate_scores(&[0, 1, 2, 3]);
        let quant = model
            .forward(&rest, Some(&fp16_kv))
            .candidate_scores(&[0, 1, 2, 3]);
        let drift = max_diff(&exact, &quant);
        assert!(drift < 1e-3, "fp16 KV drifted scores by {drift}");
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn empty_suffix_rejected() {
        let model = tiny_model(1);
        let seq = TokenSeq {
            tokens: vec![],
            segs: vec![],
            pos: vec![],
            scheme: MaskScheme::Bipartite,
        };
        let _ = model.forward(&seq, None);
    }

    /// The batched/parallel forward agrees with the seed's serial
    /// per-token oracle for both units, both schemes and both prefix
    /// orderings, with and without a spliced prefix cache.
    #[test]
    fn batched_forward_matches_reference_oracle() {
        let (u, i, s) = parts();
        let schemes = [MaskScheme::Bipartite, MaskScheme::NaiveCausal];
        let kinds = [PrefixKind::User, PrefixKind::Item];
        for (unit, model) in both_units(29) {
            for (scheme, kind) in schemes.iter().flat_map(|s| kinds.map(|k| (*s, k))) {
                let seq = PromptLayout::new(scheme).build(kind, &u, &i, &s);
                let new = model.forward(&seq, None);
                let old = model.forward_reference(&seq, None);
                assert!(
                    max_diff(&new.logits(), &old.logits()) < 1e-3,
                    "{unit} {scheme:?} {kind}: batched forward diverged from the seed oracle"
                );
                assert!(max_diff(new.hidden_last(), old.hidden_last()) < 1e-4);
                assert!(new.suffix_kv.max_abs_diff(&old.suffix_kv).unwrap() < 1e-5);

                let prefix_len = match kind {
                    PrefixKind::User => u.len(),
                    PrefixKind::Item => i.iter().map(Vec::len).sum(),
                };
                let (head, tail) = seq.split_at(prefix_len);
                let kv = model.compute_kv(&head);
                let new_c = model.forward(&tail, Some(&kv));
                let old_c = model.forward_reference(&tail, Some(&kv));
                assert!(
                    max_diff(&new_c.logits(), &old_c.logits()) < 1e-3,
                    "{unit} {scheme:?} {kind}: cached batched forward diverged from the seed oracle"
                );
                assert!(max_diff(new_c.hidden_last(), old_c.hidden_last()) < 1e-4);
            }
        }
    }

    /// The parallel forward must be bit-identical to its own serial run —
    /// the determinism contract of the execution layer — at a shape whose
    /// stages go through the pool, cut so that at every width some block
    /// starts strictly inside the item rows and some strictly inside the
    /// instruction rows: rows of each kind are computed in blocks that
    /// differ from width to width. One discriminant per item makes the last
    /// layer's read-out rows many, so that its pruned row stage is pooled
    /// and cut too.
    #[test]
    fn forward_is_bit_identical_across_thread_counts() {
        let model = GrModel::new(Weights::random(GrModelConfig::qwen2_1_5b_proxy(512), 31));
        let user: Vec<u32> = (0..200).collect();
        let items: Vec<Vec<u32>> = (0..75).map(|i| vec![200 + i, 300 + i]).collect();
        let instr: Vec<u32> = (400..480).collect();
        let discs: Vec<u32> = (100..175).collect();
        let ids: Vec<u32> = (200..275).collect();
        let seq = PromptLayout::new(MaskScheme::Bipartite).build_per_item_discriminants(
            PrefixKind::Item,
            &user,
            &items,
            &instr,
            &discs,
        );
        for (stage, work) in model.stage_work(&seq, None) {
            assert!(
                bat_tensor::stage_is_pooled(work),
                "{stage} would run inline"
            );
        }
        let (item_rows, instr_rows, disc_rows) = (0..150, 350..430, 430..505);
        bat_exec::set_threads(1);
        let gold = model.forward(&seq, None);
        let gold_scores = model.candidate_scores_per_discriminant(&seq, &gold, &ids);
        for t in [2, 4, 8] {
            let [blocks, last_blocks] = model.stage_blocks(&seq, None, t);
            let cuts = [
                (&blocks, &item_rows),
                (&blocks, &instr_rows),
                (&last_blocks, &disc_rows),
            ];
            for (blocks, rows) in cuts {
                assert!(
                    blocks
                        .iter()
                        .any(|b| rows.start < b.start && b.start < rows.end),
                    "{t} threads: no block starts inside rows {rows:?}: {blocks:?}"
                );
            }
            assert_eq!(last_blocks[0].start, disc_rows.start);
            bat_exec::set_threads(t);
            let got = model.forward(&seq, None);
            assert_eq!(bits(&gold.logits()), bits(&got.logits()), "{t} threads");
            for row in disc_rows.clone() {
                assert_eq!(bits(gold.hidden(row)), bits(got.hidden(row)), "row {row}");
            }
            let scores = model.candidate_scores_per_discriminant(&seq, &got, &ids);
            assert_eq!(bits(&gold_scores), bits(&scores), "{t} threads");
        }
        bat_exec::set_threads(1);
    }

    /// One row of the one-token forward of `seq[t]` behind the KV of
    /// `seq[..t]`: every row of that suffix is a read-out row, so every
    /// layer runs its whole row stage.
    fn one_row_forward(model: &GrModel, seq: &TokenSeq, t: usize) -> ForwardOutput {
        let (head, tail) = seq.split_at(t);
        let (token, _) = tail.split_at(1);
        let kv = (t > 0).then(|| model.compute_kv(&head));
        model.forward(&token, kv.as_ref())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The oracle of the pruned last layer, by "cached ≡ cold at any
        /// split": a read-out row of the forward that leaves every other row
        /// unfinished has the bits of the one-row forward behind the cached
        /// rest, which prunes nothing. Both schemes, both prefix kinds, the
        /// single discriminant and one per item.
        #[test]
        fn a_read_out_row_is_the_one_row_forward_behind_the_cached_rest(
            user in proptest::collection::vec(0u32..64, 1..9),
            items in proptest::collection::vec(proptest::collection::vec(0u32..64, 1..4), 1..6),
            instr in proptest::collection::vec(0u32..64, 1..4),
            seed in 0u64..u64::MAX,
            naive in proptest::bool::ANY,
            user_first in proptest::bool::ANY,
        ) {
            let model = tiny_model(seed);
            let scheme = if naive { MaskScheme::NaiveCausal } else { MaskScheme::Bipartite };
            let kind = if user_first { PrefixKind::User } else { PrefixKind::Item };
            let layout = PromptLayout::new(scheme);
            let ids: Vec<u32> = items.iter().map(|item| item[0]).collect();

            let seq = layout.build(kind, &user, &items, &instr);
            let pruned = model.forward(&seq, None);
            let alone = one_row_forward(&model, &seq, seq.len() - 1);
            prop_assert_eq!(bits(pruned.hidden_last()), bits(alone.hidden_last()));
            prop_assert_eq!(bits(&pruned.logits()), bits(&alone.logits()));
            let scores = pruned.candidate_scores(&ids);
            prop_assert_eq!(bits(&scores), bits(&alone.candidate_scores(&ids)));
            // The candidates' logits are the whole vocabulary's, token by token.
            let logits = pruned.logits();
            let mut picked: Vec<f32> = ids.iter().map(|&t| logits[t as usize]).collect();
            stable_softmax_in_place(&mut picked);
            prop_assert_eq!(bits(&scores), bits(&picked));
            // And the keys and values are those of the forward asked for nothing else.
            prop_assert_eq!(&model.compute_kv(&seq), &pruned.suffix_kv);

            let discs: Vec<u32> = (0..items.len() as u32).collect();
            let seq = layout.build_per_item_discriminants(kind, &user, &items, &instr, &discs);
            let pruned = model.forward(&seq, None);
            let mut alone_scores = vec![0.0; ids.len()];
            for (i, t) in (seq.len() - ids.len()..seq.len()).enumerate() {
                let alone = one_row_forward(&model, &seq, t);
                prop_assert_eq!(bits(pruned.hidden(t)), bits(alone.hidden_last()), "Disc({})", i);
                alone_scores[i] = dot(model.embedding.row(ids[i] as usize), alone.hidden_last());
            }
            stable_softmax_in_place(&mut alone_scores);
            let scores = model.candidate_scores_per_discriminant(&seq, &pruned, &ids);
            prop_assert_eq!(bits(&scores), bits(&alone_scores));
        }
    }

    /// Rows the last layer did not finish have no final hidden state.
    #[test]
    #[should_panic(expected = "only read-out rows have a final hidden state")]
    fn hidden_of_a_row_that_is_not_read_out_panics() {
        let model = tiny_model(3);
        let (u, i, s) = parts();
        let seq = PromptLayout::new(MaskScheme::Bipartite).build(PrefixKind::User, &u, &i, &s);
        let out = model.forward(&seq, None);
        let _ = out.hidden(seq.len() - 2);
    }

    /// The routed construction has an all-zero FFN, so the structural-skip
    /// flag must be set there and clear for random weights.
    #[test]
    fn ffn_zero_flags_follow_weight_structure() {
        let zero = |l: &Layer| matches!(l.unit, Unit::Swiglu { ffn_zero: true, .. });
        let random = tiny_model(1);
        assert!(!random.layers.iter().any(zero));
        let cfg = GrModelConfig {
            query_heads: 2,
            kv_heads: 2,
            head_dim: 16,
            hidden_dim: 32,
            ..GrModelConfig::tiny(10)
        };
        let emb = bat_tensor::Matrix::zeros(10, 32);
        let mut marker = vec![0.0f32; 32];
        marker[0] = 1.0;
        let routed = GrModel::new(Weights::routed(cfg, emb, &marker, 0.5, 0.5));
        assert!(routed.layers.iter().all(zero));
    }

    /// A reused workspace must not leak state between calls: running a
    /// different request in between leaves the original bit-identical,
    /// including through a cached-prefix splice.
    #[test]
    fn forward_with_reused_workspace_is_bit_identical() {
        let (u, i, s) = parts();
        let layout = PromptLayout::new(MaskScheme::Bipartite);
        let seq = layout.build(PrefixKind::User, &u, &i, &s);
        let (head, tail) = seq.split_at(u.len());
        // One workspace for both models: the units shape `q` and `act` differently.
        let mut ws = ForwardWorkspace::new();
        for (unit, model) in both_units(37) {
            let kv = model.compute_kv(&head);
            let gold_full = model.forward(&seq, None);
            let gold_cached = model.forward(&tail, Some(&kv));

            // Interleave differently-shaped calls through the workspace.
            let _ = model.forward_with(&tail, Some(&kv), &mut ws);
            let got_full = model.forward_with(&seq, None, &mut ws);
            assert_eq!(
                bits(&got_full.logits()),
                bits(&gold_full.logits()),
                "{unit}"
            );
            assert_eq!(got_full.suffix_kv, gold_full.suffix_kv, "{unit}");

            let got_cached = model.forward_with(&tail, Some(&kv), &mut ws);
            assert_eq!(
                bits(&got_cached.logits()),
                bits(&gold_cached.logits()),
                "{unit}"
            );
            assert_eq!(got_cached.hidden, gold_cached.hidden, "{unit}");
        }
    }

    #[test]
    fn gqa_and_mha_configs_both_run() {
        let (u, i, s) = parts();
        let layout = PromptLayout::new(MaskScheme::Bipartite);
        let seq = layout.build(PrefixKind::User, &u, &i, &s);
        for cfg in [GrModelConfig::tiny(64), GrModelConfig::small(64)] {
            let model = GrModel::new(Weights::random(cfg, 5));
            let out = model.forward(&seq, None);
            assert!(out.logits().iter().all(|v| v.is_finite()));
        }
    }
}
