//! `rank_warm` and `rank_churn`: real ranking compute over cached prefixes.
//!
//! One closed-loop client ranks requests one after another. Each request
//! goes through the repo's own layers by their public APIs: the
//! hotness-aware policy picks User- or Item-as-prefix, the user cache and
//! segment store supply the cached KV, the prompt is laid out and split,
//! the model runs the uncached suffix, and candidates are scored and cut to
//! a top-10. `rank_warm` starts with every prefix it will read already
//! cached; `rank_churn` starts cold with a quarter of the working set as
//! capacity, so the same layers also compute, insert, evict and quantize.

use crate::measure::{self, Phase};
use crate::trace::Tracer;
use crate::{Outcome, RunCfg, DATASET_SEED};
use bat_kvcache::{AdmitOutcome, CacheKey, SegmentStore, UserCache, UserCacheConfig};
use bat_model::{
    ForwardWorkspace, GrModel, GrModelConfig, KvSegment, MaskScheme, PromptLayout, SegTag,
    TokenSeq, Weights,
};
use bat_placement::{ItemLocation, ItemPlacementPlan, PlacementStrategy};
use bat_sched::{HotnessAwarePolicy, PromptPolicy};
use bat_tensor::{QuantKind, QuantizedColBlock};
use bat_tiers::{ColdFormat, SplitPolicy, TieredKvPool, TiersConfig};
use bat_types::{Bytes, DatasetConfig, ItemId, PrefixKind, RankRequest, UserId, WorkerId};
use bat_workload::hashing::splitmix64;
use bat_workload::{TraceGenerator, Workload};
use std::hint::black_box;
use std::time::Instant;

const NUM_USERS: u64 = 2_000;
const NUM_ITEMS: u64 = 4_000;
/// Attribute/instruction vocabulary after the item-identifier tokens.
const ATTR_TOKENS: u64 = 256;
const TOP_K: usize = 10;
/// Every CHECK_EVERY-th request is re-scored by a cold monolithic forward.
const CHECK_EVERY: usize = 50;
/// Largest allowed gap between a cached-prefix score and the cold one.
/// Scores are softmax shares of 50 candidates (~0.02 each). User-as-prefix
/// reproduces the cold forward bit for bit; Item-as-prefix can differ in
/// the last bits (1e-6 seen), because an early item's attention row takes
/// the dense kernel inside the full prompt and sums in another order than
/// when the item is computed alone.
const SCORE_TOLERANCE: f32 = 1e-5;
const WARMUP_REQUESTS: usize = 50;
/// Requests per block of the measured phase (a run ends on a block boundary).
const BLOCK_REQUESTS: usize = 32;
/// Requests replayed through cache accounting to decide which users the
/// warm cache holds before `rank_warm` starts.
const WARM_ACCOUNTING_REQUESTS: usize = 2_000;
/// `rank_churn` sizes its capacity from the users of this many requests.
const CHURN_WINDOW: usize = 600;
/// Nominal trace: 20 req/s for this long, cycled if a run outlasts it.
const TRACE_SECS: f64 = 600.0;
const TRACE_RATE: f64 = 20.0;
/// Store page: two tokens of packed KV for the proxy model.
const PAGE_BYTES: u64 = 1024;

#[derive(Clone, Copy)]
enum Stat {
    Mean,
    P50,
}

/// Metric, the span it summarises, how, and ns per unit of the metric.
#[rustfmt::skip]
const SPAN_METRICS: &[(&str, &str, Stat, f64)] = &[
    ("sched.policy_decide.ns", "sched.policy_decide", Stat::Mean, 1.0),
    ("kvcache.user_lookup.ns", "kvcache.user_lookup", Stat::Mean, 1.0),
    ("kvcache.segment_get.ns", "kvcache.segment_get", Stat::Mean, 1.0),
    ("model.prompt_build.us", "model.prompt_build", Stat::Mean, 1e3),
    ("model.kv_concat.us", "model.kv_concat", Stat::Mean, 1e3),
    ("model.score_topk.us", "model.score_topk", Stat::Mean, 1e3),
    ("model.forward_up_hit.ms_p50", "model.forward_up_hit", Stat::P50, 1e6),
    ("model.forward_ip_hit.ms_p50", "model.forward_ip_hit", Stat::P50, 1e6),
    ("model.forward_cold.ms_p50", "model.forward_cold", Stat::P50, 1e6),
    ("model.compute_kv_user.ms_p50", "model.compute_kv_user", Stat::P50, 1e6),
    ("model.compute_kv_item.us_p50", "model.compute_kv_item", Stat::P50, 1e3),
    ("kvcache.segment_insert.us", "kvcache.segment_insert", Stat::Mean, 1e3),
    ("kvcache.user_admit.ns", "kvcache.user_admit", Stat::Mean, 1.0),
    ("tiers.demote_quantize.us", "tiers.demote_quantize", Stat::Mean, 1e3),
    ("tiers.cold_lookup.ns", "tiers.cold_lookup", Stat::Mean, 1.0),
];

/// Spans in which the model computes tokens.
const FORWARD_SPANS: &[&str] = &[
    "model.forward_up_hit",
    "model.forward_ip_hit",
    "model.forward_cold",
    "model.compute_kv_user",
    "model.compute_kv_item",
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Warm,
    Churn,
}

fn dataset() -> DatasetConfig {
    DatasetConfig {
        name: "rank-scaled".to_owned(),
        num_users: NUM_USERS,
        num_items: NUM_ITEMS,
        avg_user_tokens: 192,
        avg_item_tokens: 2,
        candidates_per_request: 50,
        // 640 − (50 × 2 + 32) caps user profiles at 508 tokens.
        max_prompt_tokens: 640,
        item_zipf_exponent: 1.0,
        user_zipf_exponent: 0.75,
        base_request_rate: TRACE_RATE,
        session_mean_requests: 3.0,
        session_mean_gap_secs: 45.0,
    }
}

/// Exact counters of one run; they repeat for the same seed and count.
#[derive(Default)]
struct Counts {
    requests: u64,
    up: u64,
    prompt_tokens: u64,
    computed_tokens: u64,
    evictions: u64,
    flops: f64,
}

struct World {
    seed: u64,
    model: GrModel,
    params: f64,
    workload: Workload,
    layout: PromptLayout,
    policy: HotnessAwarePolicy,
    user_cache: UserCache,
    store: SegmentStore,
    /// Cold tier victims demote into (`rank_churn` only).
    pool: Option<TieredKvPool>,
    ws: ForwardWorkspace,
    instr: Vec<u32>,
    trace: Vec<RankRequest>,
    counts: Counts,
}

struct Ranked {
    prefix: PrefixKind,
    scores: Vec<f32>,
    top: Vec<usize>,
}

fn attr_token(h: u64) -> u32 {
    (NUM_ITEMS + h % ATTR_TOKENS) as u32
}

/// Identifier tokens of the candidates: the logits the scores are read from.
fn candidate_ids(req: &RankRequest) -> Vec<u32> {
    req.candidates.iter().map(|c| c.as_u64() as u32).collect()
}

fn top_k(scores: &[f32]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    idx.truncate(TOP_K);
    idx
}

impl World {
    /// Everything before the first timed request: weights, trace, item
    /// segments, and (warm) the user prefixes the warmed cache holds.
    fn set_up(mode: Mode, seed: u64, accounting: usize) -> World {
        let ds = dataset();
        let cfg = GrModelConfig::qwen2_1_5b_proxy((NUM_ITEMS + ATTR_TOKENS) as usize);
        let kv_bytes_per_token = (cfg.layers * 2 * cfg.kv_dim() * 4) as u64;
        let params = (cfg.layers
            * (2 * cfg.hidden_dim * cfg.q_dim()
                + 2 * cfg.hidden_dim * cfg.kv_dim()
                + 3 * cfg.hidden_dim * cfg.ffn_dim)) as f64;
        let model = GrModel::new(Weights::random(cfg, seed));
        let workload = Workload::new(ds.clone(), DATASET_SEED);
        let trace = TraceGenerator::new(workload.clone(), seed).generate(TRACE_SECS, TRACE_RATE);
        assert!(trace.len() > WARM_ACCOUNTING_REQUESTS, "trace too short");

        let user_bytes = |r: &RankRequest| Bytes::new(r.user_tokens as u64 * kv_bytes_per_token);
        let avg_item_kv = ds.avg_item_tokens as u64 * kv_bytes_per_token;
        let all_items = NUM_ITEMS * (avg_item_kv + 64).div_ceil(PAGE_BYTES) * PAGE_BYTES * 2;
        // Which items the store holds: all of them, or (churn) the cached head.
        let (user_capacity, plan) = match mode {
            // Room for every user the warm-up can admit: nothing evicts.
            Mode::Warm => (
                Bytes::new(NUM_USERS * ds.avg_user_tokens as u64 * kv_bytes_per_token),
                ItemPlacementPlan::new(PlacementStrategy::Hrcs, NUM_ITEMS, 1, 1.0, avg_item_kv),
            ),
            Mode::Churn => {
                let mut seen = std::collections::BTreeMap::new();
                for r in &trace[..CHURN_WINDOW] {
                    seen.insert(r.user, user_bytes(r).as_u64());
                }
                let working_set: u64 = seen.values().sum();
                (
                    Bytes::new(working_set / 4),
                    ItemPlacementPlan::new(PlacementStrategy::Hrcs, NUM_ITEMS, 1, 0.0, avg_item_kv)
                        .fit_to_capacity(Bytes::new(NUM_ITEMS / 4 * avg_item_kv)),
                )
            }
        };
        // The store holds what the user cache admits plus the item region;
        // the slack absorbs page rounding and per-token metadata.
        let store_capacity = Bytes::new(user_capacity.as_u64() * 5 / 4 + all_items);
        let pool = (mode == Mode::Churn).then(|| {
            TieredKvPool::new(
                TiersConfig::new(Bytes::new(user_capacity.as_u64() / 2))
                    .with_format(ColdFormat::Int8)
                    .with_split(SplitPolicy::AllUser),
            )
        });
        let mut w = World {
            seed,
            params,
            workload,
            layout: PromptLayout::new(MaskScheme::Bipartite),
            policy: HotnessAwarePolicy::new(kv_bytes_per_token),
            user_cache: UserCache::new(UserCacheConfig {
                capacity: user_capacity,
                page_bytes: PAGE_BYTES,
                ..UserCacheConfig::default()
            }),
            store: SegmentStore::new(store_capacity, PAGE_BYTES),
            pool,
            ws: ForwardWorkspace::new(),
            instr: (0..Workload::INSTRUCTION_TOKENS as u64)
                .map(|j| attr_token(splitmix64(seed ^ j)))
                .collect(),
            trace,
            counts: Counts::default(),
            model,
        };
        for i in 0..NUM_ITEMS {
            let item = ItemId::new(i);
            if plan.locate(item, WorkerId::new(0)) != ItemLocation::Uncached {
                let seg = w.model.compute_kv(&w.item_seq(item));
                assert!(
                    w.store.insert(CacheKey::Item(item), seg),
                    "item region fits"
                );
            }
        }
        if mode == Mode::Warm {
            w.warm_users(accounting);
        }
        w
    }

    /// Replays the head of the trace through cache accounting alone, then
    /// computes the prefix of every user the cache ended up holding.
    fn warm_users(&mut self, accounting: usize) {
        for i in 0..accounting {
            let req = &self.trace[i];
            let now = req.arrival.as_secs();
            self.user_cache.record_access(req.user, now);
            if self.policy.decide(req, &mut self.user_cache, now) == PrefixKind::User
                && !self.user_cache.contains(req.user)
            {
                let bytes = Bytes::new(req.user_tokens as u64 * self.policy.kv_bytes_per_token);
                self.user_cache.admit_if_hotter(req.user, bytes, now);
            }
        }
        for u in 0..NUM_USERS {
            let user = UserId::new(u);
            if self.user_cache.contains(user) {
                let tokens = self.user_tokens(user, self.workload.user_token_count(user));
                let seg = self.model.compute_kv(&self.layout.user_standalone(&tokens));
                assert!(
                    self.store.insert(CacheKey::User(user), seg),
                    "user region fits"
                );
            }
        }
    }

    fn item_tokens(&self, item: ItemId) -> Vec<u32> {
        let n = self.workload.item_token_count(item) as u64;
        let mut t = vec![item.as_u64() as u32];
        t.extend((1..n).map(|j| attr_token(splitmix64(self.seed ^ (item.as_u64() << 8) ^ j))));
        t
    }

    fn item_seq(&self, item: ItemId) -> TokenSeq {
        self.layout.item_standalone(0, &self.item_tokens(item), 0)
    }

    fn user_tokens(&self, user: UserId, n: u32) -> Vec<u32> {
        (0..n as u64)
            .map(|j| {
                let h = splitmix64(self.seed ^ 0x0005_e700 ^ (user.as_u64() << 20) ^ j);
                (h % (NUM_ITEMS + ATTR_TOKENS)) as u32
            })
            .collect()
    }

    /// The user's profile tokens and the full prompt under `prefix`.
    fn prompt(&self, req: &RankRequest, prefix: PrefixKind) -> (Vec<u32>, TokenSeq) {
        let user = self.user_tokens(req.user, req.user_tokens);
        let items: Vec<Vec<u32>> = req
            .candidates
            .iter()
            .map(|&c| self.item_tokens(c))
            .collect();
        let seq = self.layout.build(prefix, &user, &items, &self.instr);
        (user, seq)
    }

    /// Request `i` of the (cycled) trace and its nominal arrival time.
    fn request(&self, i: usize) -> (RankRequest, f64) {
        let n = self.trace.len();
        let req = self.trace[i % n].clone();
        let now = req.arrival.as_secs() + (i / n) as f64 * TRACE_SECS;
        (req, now)
    }

    /// FLOPs of a forward over `s` suffix tokens attending `t` tokens,
    /// computed from shapes as `2·params·S + 4·L·d·S·T`.
    fn note_forward(&mut self, s: usize, t: usize) {
        let cfg = self.model.config();
        self.counts.computed_tokens += s as u64;
        self.counts.flops += 2.0 * self.params * s as f64
            + 4.0 * (cfg.layers * cfg.q_dim()) as f64 * s as f64 * t as f64;
    }

    /// Ranks one request; the harness's single traced function.
    fn rank_once(&mut self, req: &RankRequest, now: f64, rid: u64, tr: &mut Tracer) -> Ranked {
        let root = tr.enter("rank.request", rid);
        self.user_cache.record_access(req.user, now);

        let s = tr.enter("sched.policy_decide", rid);
        let prefix = self.policy.decide(req, &mut self.user_cache, now);
        tr.exit(s);

        let s = tr.enter("model.prompt_build", rid);
        let (user, seq) = self.prompt(req, prefix);
        tr.exit(s);
        self.counts.requests += 1;
        self.counts.prompt_tokens += seq.len() as u64;

        match prefix {
            PrefixKind::User => {
                self.counts.up += 1;
                self.forward_user_prefix(req, now, rid, &user, &seq, tr);
            }
            PrefixKind::Item => self.forward_item_prefix(req, rid, &seq, tr),
        }

        let s = tr.enter("model.score_topk", rid);
        let scores = self.ws.output().candidate_scores(&candidate_ids(req));
        let top = top_k(&scores);
        tr.exit(s);
        tr.exit(root);
        Ranked {
            prefix,
            scores,
            top,
        }
    }

    fn forward_user_prefix(
        &mut self,
        req: &RankRequest,
        now: f64,
        rid: u64,
        user: &[u32],
        seq: &TokenSeq,
        tr: &mut Tracer,
    ) {
        let key = CacheKey::User(req.user);
        let s = tr.enter("kvcache.user_lookup", rid);
        let hit = self.user_cache.lookup(req.user, now).is_some();
        tr.exit(s);
        if !hit && !self.admit_user(req, now, rid, user, tr) {
            // Too cold to cache: one monolithic forward, nothing kept.
            let s = tr.enter("model.forward_cold", rid);
            self.model.forward_with(seq, None, &mut self.ws);
            tr.exit(s);
            self.note_forward(seq.len(), seq.len());
            return;
        }
        let s = tr.enter("kvcache.segment_get", rid);
        let seg = self.store.get(key).expect("admitted users are stored");
        tr.exit(s);
        let s = tr.enter("model.prompt_build", rid);
        let (_, rest) = seq.split_at(seg.len());
        tr.exit(s);
        let s = tr.enter("model.forward_up_hit", rid);
        self.model.forward_with(&rest, Some(seg), &mut self.ws);
        tr.exit(s);
        self.note_forward(rest.len(), seq.len());
    }

    /// Miss path of User-as-prefix: ask the cold tier, ask the cache for
    /// room, and on admission compute, store and account the user's prefix,
    /// demoting whoever was evicted. Returns whether the prefix is stored.
    fn admit_user(
        &mut self,
        req: &RankRequest,
        now: f64,
        rid: u64,
        user: &[u32],
        tr: &mut Tracer,
    ) -> bool {
        let key = CacheKey::User(req.user);
        let bytes = Bytes::new(req.user_tokens as u64 * self.policy.kv_bytes_per_token);
        let mut cold_hit = false;
        if let Some(pool) = self.pool.as_mut() {
            let s = tr.enter("tiers.cold_lookup", rid);
            cold_hit = pool.cold_lookup(key, bytes, now).is_some();
            tr.exit(s);
        }
        let s = tr.enter("kvcache.user_admit", rid);
        let outcome = self.user_cache.admit_if_hotter(req.user, bytes, now);
        tr.exit(s);
        let AdmitOutcome::Admitted { evicted } = outcome else {
            return false;
        };
        if let (true, Some(pool)) = (cold_hit, self.pool.as_mut()) {
            // The entry is hot again, so the cold copy goes. It could not
            // have fed the forward: there is no public way back from
            // quantized blocks to a `KvSegment`, so the prefix is recomputed.
            pool.promote(key);
        }
        for victim in evicted {
            self.counts.evictions += 1;
            let seg = self
                .store
                .remove(CacheKey::User(victim))
                .expect("victim was stored");
            if let Some(pool) = self.pool.as_mut() {
                let s = tr.enter("tiers.demote_quantize", rid);
                let full = Bytes::new(seg.packed_bytes() as u64);
                let vkey = CacheKey::User(victim);
                // The pool keeps one block per key: it takes layer 0's keys,
                // and the other blocks are quantized the same way so the
                // span covers the whole segment's demotion cost.
                if pool.demote_with_payload(vkey, full, now, seg.layers[0].keys()) {
                    black_box(QuantizedColBlock::quantize(
                        seg.layers[0].values(),
                        QuantKind::Int8,
                    ));
                    for l in &seg.layers[1..] {
                        black_box(QuantizedColBlock::quantize(l.keys(), QuantKind::Int8));
                        black_box(QuantizedColBlock::quantize(l.values(), QuantKind::Int8));
                    }
                }
                tr.exit(s);
            }
        }
        let s = tr.enter("model.compute_kv_user", rid);
        let seg = self.model.compute_kv(&self.layout.user_standalone(user));
        tr.exit(s);
        self.note_forward(user.len(), user.len());
        let s = tr.enter("kvcache.segment_insert", rid);
        let stored = self.store.insert(key, seg);
        tr.exit(s);
        assert!(stored, "store has room for every admitted user");
        true
    }

    fn forward_item_prefix(
        &mut self,
        req: &RankRequest,
        rid: u64,
        seq: &TokenSeq,
        tr: &mut Tracer,
    ) {
        // Items outside the cached head are computed per request and not kept.
        let mut cached: Vec<Option<&KvSegment>> = Vec::with_capacity(req.candidates.len());
        let mut computed: Vec<KvSegment> = Vec::new();
        for &item in &req.candidates {
            let s = tr.enter("kvcache.segment_get", rid);
            let seg = self.store.get(CacheKey::Item(item));
            tr.exit(s);
            if seg.is_none() {
                let s = tr.enter("model.compute_kv_item", rid);
                computed.push(self.model.compute_kv(&self.item_seq(item)));
                tr.exit(s);
            }
            cached.push(seg);
        }
        let s = tr.enter("model.kv_concat", rid);
        let mut fresh = computed.iter();
        let parts: Vec<&KvSegment> = cached
            .iter()
            .map(|c| c.unwrap_or_else(|| fresh.next().expect("computed above")))
            .collect();
        let mut prefix = KvSegment::concat(&parts);
        // Cached blocks carry the tag they were computed under; give each
        // the index it has in this request's candidate list.
        let mut at = 0;
        for (i, part) in parts.iter().enumerate() {
            prefix.segs[at..at + part.len()].fill(SegTag::Item(i as u32));
            at += part.len();
        }
        tr.exit(s);
        let s = tr.enter("model.prompt_build", rid);
        let (_, rest) = seq.split_at(prefix.len());
        tr.exit(s);
        let s = tr.enter("model.forward_ip_hit", rid);
        self.model.forward_with(&rest, Some(&prefix), &mut self.ws);
        tr.exit(s);
        self.note_forward(rest.len(), seq.len());
        for seg in &computed {
            self.note_forward(seg.len(), seg.len());
        }
    }

    /// Re-scores `req` with a cold monolithic forward of the same layout.
    /// The cached-prefix scores must agree within [`SCORE_TOLERANCE`] and
    /// the served top-10 must be a top-10 of the cold scores (candidates
    /// closer than the tolerance may swap). Returns `(ok, bit_exact)`.
    fn check(&mut self, req: &RankRequest, ranked: &Ranked) -> (bool, bool) {
        let (_, seq) = self.prompt(req, ranked.prefix);
        let cold = self
            .model
            .forward(&seq, None)
            .candidate_scores(&candidate_ids(req));
        let pairs = || cold.iter().zip(&ranked.scores);
        let bit_exact = pairs().all(|(a, b)| a.to_bits() == b.to_bits());
        let close = pairs().all(|(a, b)| (a - b).abs() <= SCORE_TOLERANCE);
        let ordered = ranked
            .top
            .windows(2)
            .all(|w| cold[w[0]] >= cold[w[1]] - SCORE_TOLERANCE);
        let floor = ranked.top.last().map_or(0.0, |&z| cold[z]);
        let complete = (0..cold.len())
            .filter(|i| !ranked.top.contains(i))
            .all(|i| cold[i] <= floor + SCORE_TOLERANCE);
        let ok = cold.len() == ranked.scores.len()
            && ranked.top.len() == TOP_K.min(cold.len())
            && close
            && ordered
            && complete;
        (ok, bit_exact)
    }
}

pub fn run(mode: Mode, cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    // `rank_churn` starts cold: no untimed requests, no warmed cache.
    let scale = if cfg.quick { 20 } else { 1 };
    let accounting = WARM_ACCOUNTING_REQUESTS / scale;
    let (warmup, first) = match mode {
        Mode::Warm => (
            WARMUP_REQUESTS / scale,
            accounting + WARMUP_REQUESTS / scale,
        ),
        Mode::Churn => (0, 0),
    };
    let (mut w, setup_s) = measure::repeat_set_up(cfg.setup_repeats, || {
        let mut w = World::set_up(mode, cfg.seed, accounting);
        let mut quiet = Tracer::new(false);
        for i in first - warmup..first {
            let (req, now) = w.request(i);
            w.rank_once(&req, now, i as u64, &mut quiet);
        }
        w
    });
    // Warm-up requests moved cache state on purpose; their counts do not
    // belong to the measured phase.
    w.counts = Counts::default();
    let quick_ops = cfg.quick.then_some(2 * BLOCK_REQUESTS);

    let mut latencies_ms = Vec::new();
    let mut failed = 0u64;
    let mut bit_exact = 0u64;
    let mut phase = Phase::start();
    let mut n = 0usize;
    loop {
        if n.is_multiple_of(BLOCK_REQUESTS) {
            if n > 0 {
                phase.end_block(BLOCK_REQUESTS as u64);
            }
            match quick_ops {
                Some(ops) if n >= ops => break,
                None if phase.elapsed_s() >= cfg.seconds => break,
                _ => {}
            }
        }
        let (req, now) = w.request(first + n);
        let t = Instant::now();
        let ranked = w.rank_once(&req, now, n as u64, tr);
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if n.is_multiple_of(CHECK_EVERY) {
            let (ok, exact) = phase.pause(|| w.check(&req, &ranked));
            failed += u64::from(!ok);
            bit_exact += u64::from(exact);
        }
        n += 1;
    }
    let (wall_s, blocks) = phase.finish();

    let c = &w.counts;
    let mut layer = Vec::new();
    if tr.enabled() {
        let forward_ns: f64 = FORWARD_SPANS
            .iter()
            .map(|n| tr.durations_ns(n).iter().sum::<f64>())
            .sum();
        let request_ns: f64 = tr.durations_ns("rank.request").iter().sum();
        layer = SPAN_METRICS
            .iter()
            .map(|&(metric, span, stat, per)| {
                let d = tr.durations_ns(span);
                let ns = match stat {
                    Stat::Mean => measure::mean(&d),
                    Stat::P50 => measure::median(d),
                };
                (metric, ns / per)
            })
            .collect();
        layer.extend([
            (
                "model.forward.tokens_per_s",
                c.computed_tokens as f64 / (forward_ns * 1e-9),
            ),
            ("model.forward.gflop_per_s", c.flops / forward_ns),
            ("rank.up.share", c.up as f64 / c.requests as f64),
            (
                "rank.prefix_reuse.share",
                1.0 - c.computed_tokens as f64 / c.prompt_tokens as f64,
            ),
            ("rank.computed_tokens.count", c.computed_tokens as f64),
            ("kvcache.evictions.count", c.evictions as f64),
            (
                "kvcache.store_fill.share",
                w.store.used().as_u64() as f64
                    / (w.store.used() + w.store.free_bytes()).as_u64() as f64,
            ),
            ("exec.pool_width.count", bat_exec::threads() as f64),
            (
                "rank.harness_self.share",
                tr.self_time_ns("rank.request") / request_ns,
            ),
        ]);
    }
    Outcome {
        attempted: n as u64,
        failed,
        setup_s,
        wall_s,
        blocks,
        latencies_ms,
        layer,
        info: vec![
            ("requests", c.requests as f64),
            ("up_requests", c.up as f64),
            ("prompt_tokens", c.prompt_tokens as f64),
            ("computed_tokens", c.computed_tokens as f64),
            ("evictions", c.evictions as f64),
            ("checked", n.div_ceil(CHECK_EVERY) as f64),
            ("checked_bit_exact", bit_exact as f64),
            ("stored_segments", w.store.len() as f64),
            ("cold_tier", if w.pool.is_some() { 1.0 } else { 0.0 }),
        ],
    }
}
