//! The accuracy row of the numerics contract (DESIGN §5d): the f32 serving
//! forward against an `f64` forward of the same weights, at the `rank_warm`
//! request shape of the repo benchmark (192-token profile, 50 two-token
//! candidates, 32-token instruction block, `qwen2_1_5b_proxy`), under both
//! prefix schemes.
//!
//! The `f64` forward below is the reference, written for the test alone: no
//! blocking, no fast `exp`, every sum accumulated in `f64` in index order.
//! What is compared is what a user receives — the 50 candidate scores
//! (softmax over the candidates' logits) and the top-10 they induce.
//!
//! Changing the arithmetic of the kernels moves these figures; the rule is
//! that it may not move them *away* from the reference. The constants are
//! the figures of the epoch before the current one (separate multiply and
//! add, degree-7 `exp`), measured by running this file against that commit;
//! EXPERIMENTS.md records both rows. A new epoch re-records them the same
//! way.
//!
//! Optimized builds only (CI's release step runs it): sixteen `f64` forwards
//! of a 324-token prompt take a minute and a half unoptimized.

use bat_model::prompt::{MaskScheme, PromptLayout, SegTag, TokenSeq};
use bat_model::{GrModel, GrModelConfig, KvSegment, Weights};
use bat_tensor::{Matrix, RopeTable};
use bat_types::PrefixKind;

/// `max |Δscore|` of the previous numerics epoch (commit `7d9de14`) over the
/// [`REQUESTS`] requests, User- then Item-as-prefix: the largest, and the
/// mean of the per-request maxima.
const PREVIOUS_EPOCH_WORST: [f64; 2] = [1.067e-6, 1.113e-6];
const PREVIOUS_EPOCH_MEAN: [f64; 2] = [3.874e-7, 3.433e-7];

/// The headroom the comparison grants: a tenth of an f32 ulp of a score
/// (scores are ≈ 1/50), so "no worse" is not decided by noise in the last
/// bit of the subtraction.
const SLACK: f64 = 1e-7;

fn rms_norm(x: &[f64], gain: &[f32]) -> Vec<f64> {
    let ms = x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64;
    let inv = 1.0 / (ms + 1e-6).sqrt();
    x.iter()
        .zip(gain)
        .map(|(v, g)| v * inv * f64::from(*g))
        .collect()
}

/// `x × w` with `w` stored `in × out`.
fn project(x: &[f64], w: &Matrix) -> Vec<f64> {
    (0..w.cols())
        .map(|c| {
            x.iter()
                .enumerate()
                .map(|(k, v)| v * f64::from(w.get(k, c)))
                .sum()
        })
        .collect()
}

fn softmax(xs: &[f64]) -> Vec<f64> {
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = xs.iter().map(|x| (x - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|e| e / sum).collect()
}

/// The rotation the model's own table holds for `pos`, read off by rotating
/// `(1, 0)` pairs: the table is a model constant, so the reference uses its
/// f32 entries exactly rather than recomputing them in `f64`.
fn rope(table: &RopeTable, d: usize, pos: usize, heads: &mut [f64]) {
    let mut probe: Vec<f32> = (0..d).map(|i| if i % 2 == 0 { 1.0 } else { 0.0 }).collect();
    table.apply(&mut probe, pos);
    for head in heads.chunks_exact_mut(d) {
        for (pair, cs) in head.chunks_exact_mut(2).zip(probe.chunks_exact(2)) {
            let (a, b, c, s) = (pair[0], pair[1], f64::from(cs[0]), f64::from(cs[1]));
            pair[0] = a * c - b * s;
            pair[1] = a * s + b * c;
        }
    }
}

/// The cold monolithic forward of `seq` in `f64`: the candidates' scores.
fn reference_scores(w: &Weights, seq: &TokenSeq, candidates: &[u32]) -> Vec<f64> {
    let cfg = &w.cfg;
    let (d, group) = (cfg.head_dim, cfg.gqa_group());
    let table = RopeTable::new(d, cfg.max_positions, cfg.rope_base);
    let n = seq.len();
    let mut h: Vec<Vec<f64>> = seq
        .tokens
        .iter()
        .map(|&t| {
            w.embedding
                .row(t as usize)
                .iter()
                .map(|&x| f64::from(x))
                .collect()
        })
        .collect();
    for lw in &w.layers {
        let (mut qs, mut ks, mut vs) = (Vec::new(), Vec::new(), Vec::new());
        for (t, ht) in h.iter().enumerate() {
            let xn = rms_norm(ht, &lw.attn_norm);
            let (mut q, mut k) = (project(&xn, &lw.wq), project(&xn, &lw.wk));
            rope(&table, d, seq.pos[t] as usize, &mut q);
            rope(&table, d, seq.pos[t] as usize, &mut k);
            qs.push(q);
            ks.push(k);
            vs.push(project(&xn, &lw.wv));
        }
        for t in 0..n {
            let mut attn = vec![0.0f64; cfg.q_dim()];
            let allowed: Vec<usize> = (0..=t).filter(|&k| seq.allowed(t, k)).collect();
            for qh in 0..cfg.query_heads {
                let kv = (qh / group) * d..(qh / group + 1) * d;
                let q = &qs[t][qh * d..(qh + 1) * d];
                let scores: Vec<f64> = allowed
                    .iter()
                    .map(|&k| {
                        let dot: f64 = q.iter().zip(&ks[k][kv.clone()]).map(|(a, b)| a * b).sum();
                        dot / (d as f64).sqrt()
                    })
                    .collect();
                for (weight, &k) in softmax(&scores).iter().zip(&allowed) {
                    for (o, v) in attn[qh * d..(qh + 1) * d]
                        .iter_mut()
                        .zip(&vs[k][kv.clone()])
                    {
                        *o += weight * v;
                    }
                }
            }
            for (a, b) in h[t].iter_mut().zip(project(&attn, &lw.wo)) {
                *a += b;
            }
            let xn = rms_norm(&h[t], &lw.ffn_norm);
            let act: Vec<f64> = project(&xn, &lw.w_gate)
                .iter()
                .zip(project(&xn, &lw.w_up))
                .map(|(g, u)| g / (1.0 + (-g).exp()) * u)
                .collect();
            for (a, b) in h[t].iter_mut().zip(project(&act, &lw.w_down)) {
                *a += b;
            }
        }
    }
    let last = rms_norm(&h[n - 1], &w.final_norm);
    let logits: Vec<f64> = candidates
        .iter()
        .map(|&c| {
            let row = w.embedding.row(c as usize);
            row.iter().zip(&last).map(|(e, x)| f64::from(*e) * x).sum()
        })
        .collect();
    softmax(&logits)
}

/// Indices of the ten largest scores, ties to the lower index.
fn top10(scores: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    order.truncate(10);
    order
}

/// Requests the figures are taken over: one draw says little (the error of
/// a single forward is a random walk through ~10⁷ roundings; the previous
/// epoch's own per-request maxima range from 0.9e-7 to 1.1e-6).
const REQUESTS: u32 = 8;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "takes ~90 s unoptimized; run with --release"
)]
fn f32_forward_is_no_further_from_the_f64_reference_than_the_previous_epoch() {
    let weights = Weights::random(GrModelConfig::qwen2_1_5b_proxy(4256), 11);
    let model = GrModel::new(weights.clone());
    let layout = PromptLayout::new(MaskScheme::Bipartite);
    let instr: Vec<u32> = (0..32).map(|i| 4100 + i).collect();

    for (scheme, kind) in [PrefixKind::User, PrefixKind::Item].into_iter().enumerate() {
        let (mut worst, mut sum, mut agree) = (0.0f64, 0.0f64, 0);
        for r in 0..REQUESTS {
            let user: Vec<u32> = (0..192).map(|i| (i * 37 + r * 1009) % 4000).collect();
            let candidates: Vec<u32> = (0..50).map(|i| (i * 61 + r * 7) % 4000).collect();
            let items: Vec<Vec<u32>> = candidates
                .iter()
                .map(|&c| vec![c, 4000 + c % 100])
                .collect();
            let seq = layout.build(kind, &user, &items, &instr);
            // The serving path: the cached prefix spliced in front of the
            // suffix (the profile's KV; the 50 item segments computed
            // standalone).
            let (prefix, tail) = match kind {
                PrefixKind::User => {
                    let (head, tail) = seq.split_at(user.len());
                    (model.compute_kv(&head), tail)
                }
                PrefixKind::Item => {
                    let cached: Vec<KvSegment> = items
                        .iter()
                        .map(|item| model.compute_kv(&layout.item_standalone(0, item, 0)))
                        .collect();
                    let mut kv = KvSegment::concat(&cached.iter().collect::<Vec<_>>());
                    for (g, tag) in kv.segs.iter_mut().enumerate() {
                        *tag = SegTag::Item(g as u32 / 2);
                    }
                    (kv, seq.split_at(100).1)
                }
            };
            let served: Vec<f64> = model
                .forward(&tail, Some(&prefix))
                .candidate_scores(&candidates)
                .into_iter()
                .map(f64::from)
                .collect();
            let exact = reference_scores(&weights, &seq, &candidates);
            let max_diff = served
                .iter()
                .zip(&exact)
                .map(|(s, e)| (s - e).abs())
                .fold(0.0, f64::max);
            worst = worst.max(max_diff);
            sum += max_diff;
            let (top_served, top_exact) = (top10(&served), top10(&exact));
            agree += top_served.iter().filter(|i| top_exact.contains(i)).count();
            assert_eq!(
                top_served, top_exact,
                "{kind} request {r}: the served top-10 differs"
            );
        }
        let mean = sum / f64::from(REQUESTS);
        eprintln!(
            "{kind}-as-prefix over {REQUESTS} requests: max |Δscore| {worst:.3e} (mean of the \
             per-request maxima {mean:.3e}), top-10 agreement {agree}/{}",
            10 * REQUESTS
        );
        assert!(
            worst <= PREVIOUS_EPOCH_WORST[scheme] + SLACK
                && mean <= PREVIOUS_EPOCH_MEAN[scheme] + SLACK,
            "{kind}: max |Δscore| {worst:e} (mean {mean:e}) is further from the f64 reference \
             than the previous epoch's {:e} (mean {:e})",
            PREVIOUS_EPOCH_WORST[scheme],
            PREVIOUS_EPOCH_MEAN[scheme]
        );
    }
}
