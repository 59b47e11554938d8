//! Request planning: the scheduler's per-request cache transaction.
//!
//! [`RequestPlanner`] encapsulates what the centralized scheduler does for
//! one arriving request (§5.1): consult the policy for the prefix decision,
//! perform the user-cache lookup/admission, resolve item placement, and
//! emit the resulting compute job (suffix tokens, context size, KV bytes to
//! load locally and to pull over the network). Both the discrete-event
//! engine (`bat-sim`) and the threaded runtime (`bat-serve`) drive the same
//! planner, so their cache behavior is identical by construction.

use crate::compute::ComputeModel;
use crate::engine::{item_region_budget, AdmissionKind, EngineConfig, PolicyKind};
use bat_faults::{AppliedFault, ClusterView, FaultCursor, FaultReport, FaultSchedule};
use bat_kvcache::{AdmitOutcome, UserCache, UserCacheConfig};
use bat_meta::MetaClient;
use bat_placement::{DegradedLocation, DegradedPlacement, ItemLocation, ItemPlacementPlan};
use bat_sched::overload::{RETRY_BACKOFF_SECS, RETRY_SEED};
use bat_sched::{CacheAgnosticPolicy, HotnessAwarePolicy, PromptPolicy, StaticPolicy};
use bat_tiers::{SplitPolicy, TieredKvPool, TiersConfig};
use bat_types::{Bytes, ItemId, PrefixKind, RankRequest, WorkerId};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::collections::HashSet;

/// Width of the windowed hit-rate buckets behind the availability curve.
const FAULT_WINDOW_SECS: f64 = 0.5;
/// Recovery means the windowed hit rate is back within this absolute
/// tolerance of the pre-fault steady state.
const RECOVERY_TOLERANCE: f64 = 0.05;
/// The worker every request is planned from. Sharding is round-robin, so
/// worker 0 is representative of any affinity worker.
const AFFINITY: WorkerId = WorkerId::new(0);

/// The planned compute job for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedJob {
    /// Prefix decision taken (meaningless when caching is disabled).
    pub prefix: PrefixKind,
    /// Tokens that must be computed.
    pub suffix_tokens: u64,
    /// Total attention context (= prompt length).
    pub context_tokens: u64,
    /// KV bytes loaded from local host memory over PCIe.
    pub local_load: Bytes,
    /// KV bytes pulled from remote cache workers.
    pub remote_bytes: Bytes,
    /// Extra network-path seconds beyond the nominal transfer time:
    /// slowed-link inflation after hedging picked the fastest holder,
    /// seeded-jittered backoff delays spent on retried pulls, and the
    /// cold-tier streaming time of quantized KV served by the tiered pool.
    /// Zero on every run without `SlowLink` faults or a tiered pool.
    pub net_extra_secs: f64,
}

impl PlannedJob {
    /// Tokens reused from cache.
    pub fn reused_tokens(&self) -> u64 {
        self.context_tokens - self.suffix_tokens
    }
}

/// Where an item lookup lands under the current membership and warmth.
enum Lookup {
    /// Served from the request's (live, warm) affinity worker.
    LocalHit,
    /// Served from another live, warm worker over the network.
    RemoteHit {
        /// True when a surviving HRCS replica covered for the dead or cold
        /// affinity worker.
        from_replica: bool,
        /// The worker the pull is issued to.
        holder: WorkerId,
        /// A second reachable warm holder (replicated items only) the
        /// planner can hedge the pull against when the primary's link is
        /// slow.
        alt: Option<WorkerId>,
    },
    /// Entry unreachable under the current membership: recompute.
    Recompute,
    /// Outside the cached corpus: recompute, and not a fault fallback.
    Uncached,
}

impl Lookup {
    /// A hit on `holder`'s shard copy: local on the affinity worker, a pull
    /// from anywhere else.
    fn shard_hit(holder: WorkerId) -> Self {
        if holder == AFFINITY {
            Lookup::LocalHit
        } else {
            Lookup::RemoteHit {
                from_replica: false,
                holder,
                alt: None,
            }
        }
    }
}

/// The planner's view of the cluster: membership, warmth, links and the
/// fault ledger. A run without a schedule carries the empty one — every
/// worker alive and warm, every link intact — so nothing in here fires and
/// every lookup is the placement plan's own answer.
///
/// Everything in here advances on *nominal* time (request arrivals and
/// scheduled fault instants), never on wall-clock readings, so `bat-sim` and
/// `bat-serve` walk through identical states for the same trace + schedule.
struct FaultState {
    cursor: FaultCursor,
    view: ClusterView,
    report: FaultReport,
    /// Per worker: the incarnation whose cache contents are warm. A
    /// restarted worker carries a newer incarnation until its re-warm
    /// completes, and serves nothing in between.
    warm_incarnation: Vec<u64>,
    /// Per worker: nominal time at which a pending re-warm completes.
    rewarm_ready_at: Vec<f64>,
    /// Seconds to stream one worker's item region over the interconnect.
    rewarm_secs: f64,
    /// Item-region byte budget per worker, bounding shard adoption.
    per_worker_budget: Bytes,
    /// Membership-aware re-plan; present while any worker is down.
    degraded: Option<DegradedPlacement>,
    /// Adopted entries already recomputed once and written back.
    warmed_adopted: HashSet<u64>,
    /// Windowed (reused, total) token counts, one per
    /// [`FAULT_WINDOW_SECS`] bucket from time 0.
    buckets: Vec<(u64, u64)>,
    /// Jitter source for backoff-retried pulls. Drawn only when a pull
    /// actually crosses a slowed link, in arrival order, so runs without
    /// `SlowLink` events never touch it.
    retry_rng: SmallRng,
    /// Per worker, [`FaultState::derive_reach`] as of the last change to
    /// membership, warmth or links ([`FaultState::refresh_reach`]).
    reach: Vec<(bool, bool)>,
}

impl FaultState {
    /// Every worker of `schedule` alive and warm, no event applied yet.
    fn new(schedule: FaultSchedule, rewarm_secs: f64, per_worker_budget: Bytes) -> Self {
        let n = schedule.num_workers();
        FaultState {
            view: ClusterView::with_meta(n, schedule.meta_nodes()),
            cursor: FaultCursor::new(schedule),
            report: FaultReport::default(),
            warm_incarnation: vec![0; n],
            rewarm_ready_at: vec![f64::NEG_INFINITY; n],
            rewarm_secs,
            per_worker_budget,
            degraded: None,
            warmed_adopted: HashSet::new(),
            buckets: Vec::new(),
            retry_rng: SmallRng::seed_from_u64(RETRY_SEED),
            reach: vec![(true, true); n],
        }
    }

    /// Worker `w`'s `(warm, reachable)`: alive with its cache contents warm,
    /// and a remote KV pull from it can reach the [`AFFINITY`] worker under
    /// the current partition view. When the affinity worker itself is down
    /// the request is served from some other node we don't model, so
    /// partition gating only applies while it is up.
    fn derive_reach(&self, w: usize) -> (bool, bool) {
        let (view, id) = (&self.view, WorkerId::new(w as u64));
        let warm = view.is_alive(id) && self.warm_incarnation[w] == view.incarnation(id);
        let reachable = !view.is_alive(AFFINITY) || view.reachable(AFFINITY, id);
        (warm, reachable)
    }

    /// Re-derives every worker's reach after faults fired or warmth changed.
    fn refresh_reach(&mut self) {
        self.reach = (0..self.view.num_workers())
            .map(|w| self.derive_reach(w))
            .collect();
    }

    /// Worker `w`'s cached reach; `locate` reads it for every candidate.
    #[inline]
    fn reach(&self, w: WorkerId) -> (bool, bool) {
        let reach = self.reach[w.index()];
        debug_assert_eq!(reach, self.derive_reach(w.index()), "stale reach of {w}");
        reach
    }

    /// Item lookup for a request on the [`AFFINITY`] worker: where the
    /// placement plan puts `item`, degraded by warmth, reachability and
    /// adoption.
    #[inline]
    fn locate(&mut self, plan: &ItemPlacementPlan, item: ItemId) -> Lookup {
        let owner = match plan.locate(item, AFFINITY) {
            ItemLocation::Uncached => return Lookup::Uncached,
            ItemLocation::LocalShard => AFFINITY,
            ItemLocation::Remote(owner) => owner,
            ItemLocation::LocalReplica => {
                if self.reach(AFFINITY).0 {
                    return Lookup::LocalHit;
                }
                // The affinity worker's copy is gone; any surviving warm
                // worker can serve the replicated item if the requester can
                // reach it under the current partition view. Skip cut-off
                // holders; remember a second reachable one as hedge target.
                let mut skipped_unreachable = false;
                let mut holder: Option<WorkerId> = None;
                let mut alt: Option<WorkerId> = None;
                for w in 0..plan.num_workers() {
                    let id = WorkerId::new(w as u64);
                    match self.reach(id) {
                        (true, true) if holder.is_none() => holder = Some(id),
                        (true, true) => {
                            alt = Some(id);
                            break;
                        }
                        (true, false) if holder.is_none() => skipped_unreachable = true,
                        _ => {}
                    }
                }
                if skipped_unreachable {
                    self.report.unreachable_kv_fallbacks += 1;
                }
                return match holder {
                    Some(h) => Lookup::RemoteHit {
                        from_replica: true,
                        holder: h,
                        alt,
                    },
                    None => Lookup::Recompute,
                };
            }
        };
        match self.reach(owner) {
            (true, true) => return Lookup::shard_hit(owner),
            // The owner is warm but cut off by a partition: same degraded
            // path as a dead owner — an adopter may hold the entry, and
            // recompute covers the rest.
            (true, false) => self.report.unreachable_kv_fallbacks += 1,
            (false, _) => {}
        }
        // Cold-shard miss: the owner is dead, not yet re-warmed, or
        // unreachable. A live worker may have adopted the entry; adopted
        // entries start cold, so the first access recomputes and writes
        // back, and later accesses hit the adopter. The write-back (and any
        // later hit) also requires the adopter to be reachable.
        if let Some(d) = &self.degraded {
            if let DegradedLocation::Adopted(target) = d.locate(item) {
                let id = item.as_u64();
                if self.reach(target).1 {
                    if self.warmed_adopted.contains(&id) {
                        return Lookup::shard_hit(target);
                    }
                    self.warmed_adopted.insert(id);
                } else {
                    self.report.unreachable_kv_fallbacks += 1;
                }
            }
        }
        Lookup::Recompute
    }
}

/// Stateful per-request planner shared by the simulator and the runtime.
pub struct RequestPlanner {
    compute: ComputeModel,
    user_cache: UserCache,
    policy: Box<dyn PromptPolicy>,
    placement: Option<ItemPlacementPlan>,
    admission: AdmissionKind,
    caching: bool,
    /// The replicated cache-meta service. The planner mirrors every cache
    /// mutation through it; RE mutates nothing, so its group only sees the
    /// schedule's meta faults, and its counters are reported only when
    /// caching is on.
    meta: MetaClient,
    /// Item access-frequency estimator for the §5.2 Step 3 background
    /// refresh; present exactly when a refresh interval is configured.
    item_freq: Option<bat_kvcache::FreqEstimator<ItemId>>,
    /// Membership, warmth and the fault ledger; the empty schedule when the
    /// configuration has none.
    faults: FaultState,
    /// Current brownout ladder rung (0 = healthy). Set by the engine's
    /// overload controller before each plan; rung 1 suspends background
    /// replication refresh, rung 2 degrades cold remote pulls to recompute
    /// (or, with a tiered pool, serves them from the local cold tier).
    brownout_rung: u8,
    /// The tiered KV pool: a quantized cold tier behind the hot cache
    /// regions. Without a configured pool it has no cold capacity, so every
    /// cold lookup misses and every demotion is dropped: the flat cache.
    /// Decisions are driven on nominal arrival times, so the simulator's
    /// and the runtime's planners take the same ones bitwise.
    tiers: TieredKvPool,
}

impl RequestPlanner {
    /// Builds a planner from an engine configuration (assumed validated).
    pub fn from_config(cfg: &EngineConfig) -> Self {
        let compute = ComputeModel::new(cfg.model.clone(), cfg.cluster.node.clone());
        let user_cache = UserCache::new(UserCacheConfig {
            capacity: cfg.user_cache_capacity,
            freq_window_secs: cfg.freq_window_secs,
            min_freq_sample: 8,
            page_bytes: 16 * cfg.model.kv_bytes_per_token(),
        });
        let policy: Box<dyn PromptPolicy> = match cfg.policy {
            PolicyKind::StaticUser => Box::new(StaticPolicy(PrefixKind::User)),
            PolicyKind::StaticItem => Box::new(StaticPolicy(PrefixKind::Item)),
            PolicyKind::CacheAgnostic => Box::new(CacheAgnosticPolicy),
            PolicyKind::HotnessAware => {
                Box::new(HotnessAwarePolicy::new(cfg.model.kv_bytes_per_token()))
            }
        };
        // Re-warming a returned worker streams its item region back over
        // the pool interconnect.
        let rewarm_secs = cfg.placement.as_ref().map_or(0.0, |plan| {
            compute.net_transfer_secs(plan.per_worker_bytes())
        });
        let faults = FaultState::new(
            cfg.faults
                .clone()
                .unwrap_or_else(|| FaultSchedule::none(cfg.cluster.num_nodes)),
            rewarm_secs,
            item_region_budget(&cfg.cluster),
        );
        RequestPlanner {
            compute,
            user_cache,
            policy,
            placement: cfg.placement.clone(),
            admission: cfg.admission,
            caching: cfg.caching,
            meta: MetaClient::new(cfg.meta_replicas, cfg.meta_seed, cfg.cluster.num_nodes),
            item_freq: cfg
                .item_refresh_interval_secs
                .map(|_| bat_kvcache::FreqEstimator::new(cfg.freq_window_secs)),
            faults,
            brownout_rung: 0,
            tiers: TieredKvPool::new(cfg.tiers.clone().unwrap_or_else(|| {
                TiersConfig::new(Bytes::ZERO).with_split(SplitPolicy::Static(0.5))
            })),
        }
    }

    /// The tiered pool's ledger.
    pub fn tier_stats(&self) -> bat_metrics::TierStats {
        self.tiers.stats()
    }

    /// Moves the planner onto a brownout ladder rung. Rung transitions are
    /// recorded in the fault report so ablation runs can show when the
    /// ladder engaged and how high it climbed.
    pub fn set_brownout_rung(&mut self, rung: u8) {
        if rung == self.brownout_rung {
            return;
        }
        let report = &mut self.faults.report;
        report.brownout_transitions += 1;
        report.max_brownout_rung = report.max_brownout_rung.max(rung);
        self.brownout_rung = rung;
    }

    /// The admission controller's cost estimate for a request: the no-cache
    /// prefill time for its full prompt. Deliberately pessimistic (cache
    /// hits make the real job cheaper), so admission errs toward capacity
    /// headroom rather than accepted work it cannot finish.
    pub fn admission_estimate_secs(&self, req: &RankRequest) -> f64 {
        let total = u64::from(req.total_tokens());
        self.compute.prefill_secs(total, total)
    }

    /// Re-replicates the hottest observed items into the placement plan's
    /// replicated area (§5.2 Step 3's background update). No-op unless a
    /// refresh interval is configured and an item placement exists.
    ///
    /// This is also the recovery path's re-warm hook: a worker returning
    /// from a crash has its shard and replica contents streamed back, and
    /// becomes warm once the transfer completes (`settle_rewarms`).
    pub fn refresh_item_replication(&mut self, now: f64) {
        self.settle_rewarms(now);
        if self.brownout_rung >= 1 {
            // Brownout rung 1: background replication churn is the first
            // thing to go under pressure — re-warms still settle (they free
            // capacity), but the hotness-driven refresh is deferred.
            self.faults.report.suspended_refreshes += 1;
            return;
        }
        let (Some(freq), Some(plan)) = (&self.item_freq, &mut self.placement) else {
            return;
        };
        let cap = plan.replicated_items() as usize;
        if cap == 0 {
            return;
        }
        let mut rates: Vec<(ItemId, f64)> = freq
            .iter_keys()
            .map(|&item| (item, freq.rate(&item, now)))
            .collect();
        // Total order (rate desc, id asc): the estimator iterates in hash
        // order, so ties must not be left to insertion luck or two runs of
        // the same seed could replicate different members.
        rates.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("rates are finite")
                .then_with(|| a.0.as_u64().cmp(&b.0.as_u64()))
        });
        // Hottest observed items first; any leftover area capacity keeps the
        // offline plan's rank-prefix members (unobserved ≠ cold — the
        // offline CDF put them there for a reason).
        let mut members: Vec<ItemId> = rates.into_iter().take(cap).map(|(i, _)| i).collect();
        let chosen: HashSet<ItemId> = members.iter().copied().collect();
        let mut fill = 0u64;
        while members.len() < cap && fill < plan.num_items() {
            let candidate = ItemId::new(fill);
            if !chosen.contains(&candidate) {
                members.push(candidate);
            }
            fill += 1;
        }
        plan.refresh_replicated(members);
    }

    /// Time of the next scheduled fault not yet applied, if any.
    pub fn next_fault_at(&self) -> Option<f64> {
        self.faults.cursor.next_at()
    }

    /// Applies every scheduled fault with `at_secs <= now`, returning what
    /// fired. Both execution paths call this with *nominal* times (request
    /// arrivals, scheduled fault instants), which is what keeps their fault
    /// handling identical. [`Self::plan`] calls it implicitly; the engines
    /// call it directly when a fault instant needs side effects (rerouting
    /// queued work, killing a thread) beyond cache accounting.
    pub fn advance_faults(&mut self, now: f64) -> Vec<AppliedFault> {
        let mut applied: Vec<(f64, AppliedFault)> = Vec::new();
        let fs = &mut self.faults;
        fs.cursor
            .advance_to(now, &mut fs.view, |e, a| applied.push((e.at_secs, a)));
        if !applied.is_empty() {
            fs.refresh_reach();
        }
        let report = &mut fs.report;
        let mut membership_changed = false;
        let mut reach_changed = false;
        for &(at, a) in &applied {
            match a {
                AppliedFault::Crashed(w) | AppliedFault::Drained(w) => {
                    // The meta service invalidates every user entry the
                    // worker held; those users miss and re-admit elsewhere.
                    // A drain is graceful for *work* (queued chunks migrate)
                    // but the process still exits, so its cache partition
                    // leaves with it — counted apart so reports distinguish
                    // planned scale-in.
                    let n = fs.view.num_workers();
                    let (entries, bytes) = self.user_cache.invalidate_partition(w.index(), n);
                    // The hot copies died with the worker; the cold tier
                    // is durable local storage and keeps its entries.
                    self.tiers.forget_hot_partition(w.index(), n);
                    // The replicated index drops the same partition; the
                    // counts must agree or the mirror has diverged.
                    let dropped = self.meta.drop_user_partition(w.index(), n, at);
                    debug_assert_eq!(
                        dropped, entries,
                        "meta service and user cache disagree on worker {w}'s partition"
                    );
                    match a {
                        AppliedFault::Crashed(_) => report.crashes += 1,
                        _ => report.drains += 1,
                    }
                    report.invalidated_entries += entries;
                    report.invalidated_bytes += bytes.as_u64();
                    membership_changed = true;
                    reach_changed = true;
                }
                AppliedFault::Restarted(w, _) | AppliedFault::Joined(w, _) => {
                    self.meta.note_worker_restart(w.index(), at);
                    match a {
                        AppliedFault::Restarted(..) => report.restarts += 1,
                        _ => report.joins += 1,
                    }
                    // The worker (a restarted one, or a fresh process in a
                    // joined slot) is empty: it serves nothing until the
                    // re-warm stream completes (settle_rewarms).
                    fs.rewarm_ready_at[w.index()] = at + fs.rewarm_secs;
                    membership_changed = true;
                    reach_changed = true;
                }
                AppliedFault::LinkFactor(factor) => {
                    if factor > 1.0 {
                        report.link_degrades += 1;
                    }
                }
                AppliedFault::MetaStalledUntil(_) => report.meta_stalls += 1,
                AppliedFault::MetaCrashed(m) => {
                    report.meta_crashes += 1;
                    self.meta.crash_replica(m, at);
                }
                AppliedFault::MetaRestarted(m) => {
                    report.meta_restarts += 1;
                    self.meta.restart_replica(m, at);
                }
                AppliedFault::LinkCut(..) => {
                    report.link_partitions += 1;
                    reach_changed = true;
                }
                AppliedFault::LinkHealed(..) => {
                    reach_changed = true;
                }
                AppliedFault::LinkSlowed(_, _, factor) => {
                    // The pair stays reachable; only the pull latency model
                    // changes, so no membership or reach rebuild is needed.
                    if factor > 1.0 {
                        report.slow_links += 1;
                    }
                }
            }
        }
        if reach_changed {
            // A leader behind a cut link is as good as down: the client
            // forces an election among the replicas it can still reach.
            let view = &self.faults.view;
            self.meta.update_reachability(|from, to| {
                view.reachable(WorkerId::new(from as u64), WorkerId::new(to as u64))
            });
        }
        if membership_changed {
            self.rebuild_degraded();
        }
        self.settle_rewarms(now);
        applied.into_iter().map(|(_, a)| a).collect()
    }

    /// Rebuilds the membership-aware re-plan after an epoch change and
    /// refreshes the policy's degraded-mode availability signal.
    fn rebuild_degraded(&mut self) {
        let fs = &mut self.faults;
        fs.warmed_adopted.clear();
        fs.degraded = if fs.view.n_alive() < fs.view.num_workers() {
            self.placement.as_ref().map(|plan| {
                DegradedPlacement::new(plan, fs.view.alive_mask(), fs.per_worker_budget)
            })
        } else {
            None
        };
        let frac = self.item_availability();
        self.policy.set_item_availability(frac);
    }

    /// Completes any due re-warms: a restarted worker becomes warm once its
    /// item region has streamed back over the interconnect.
    fn settle_rewarms(&mut self, now: f64) {
        let fs = &mut self.faults;
        let mut any = false;
        for w in 0..fs.view.num_workers() {
            let id = WorkerId::new(w as u64);
            if fs.view.is_alive(id)
                && fs.warm_incarnation[w] != fs.view.incarnation(id)
                && now >= fs.rewarm_ready_at[w]
            {
                fs.warm_incarnation[w] = fs.view.incarnation(id);
                if let Some(plan) = &self.placement {
                    let w_total = plan.num_workers() as u64;
                    let sharded = plan.cached_items() - plan.replicated_items();
                    fs.report.rewarmed_items += plan.replicated_items() + sharded.div_ceil(w_total);
                }
                any = true;
            }
        }
        if any {
            self.faults.refresh_reach();
            let frac = self.item_availability();
            self.policy.set_item_availability(frac);
        }
    }

    /// Fraction of the cached item corpus currently reachable: replicated
    /// items survive while any warm worker does, sharded items in
    /// proportion to warm membership. 1.0 without placement.
    fn item_availability(&self) -> f64 {
        let Some(plan) = self.placement.as_ref().filter(|p| p.cached_items() > 0) else {
            return 1.0;
        };
        let (n, cached) = (plan.num_workers(), plan.cached_items());
        let n_warm = (0..n).filter(|&w| self.faults.derive_reach(w).0).count();
        let repl = plan.replicated_items() as f64;
        let sharded = (cached - plan.replicated_items()) as f64;
        let repl_avail = if n_warm > 0 { repl } else { 0.0 };
        ((repl_avail + sharded * n_warm as f64 / n as f64) / cached as f64).clamp(0.0, 1.0)
    }

    /// Whether `worker` can accept dispatches under the current membership.
    pub fn is_worker_alive(&self, worker: usize) -> bool {
        self.faults.view.is_alive(WorkerId::new(worker as u64))
    }

    /// The windowed hit-rate timeline `(window_end_secs, hit_rate)` the
    /// fault report's recovery metrics derive from (the availability curve).
    pub fn fault_timeline(&self) -> Vec<(f64, f64)> {
        self.faults
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, (_, total))| *total > 0)
            .map(|(b, &(reused, total))| {
                (
                    (b + 1) as f64 * FAULT_WINDOW_SECS,
                    reused as f64 / total as f64,
                )
            })
            .collect()
    }

    /// Applies any still-pending fault events and returns the finalized
    /// [`FaultReport`], with the meta group's consensus counters (when
    /// caching is on) and the recovery metrics computed from the hit-rate
    /// timeline.
    pub fn finish_faults(&mut self) -> FaultReport {
        self.advance_faults(f64::INFINITY);
        let mut report = self.faults.report.clone();
        // Elections and epochs are driven by logical ticks off nominal
        // trace time, so both execution paths land on identical numbers.
        if self.caching {
            let group = self.meta.group().stats();
            report.meta_elections = group.elections;
            report.meta_final_epoch = self.meta.group().epoch();
            report.meta_fenced_appends = group.fenced_appends;
            report.meta_snapshot_installs = group.snapshot_installs;
            report.meta_unreachable_leader_elections = self.meta.stats().forced_elections;
        }
        let first_crash_at = self.faults.cursor.schedule().first_crash_at();
        report.compute_recovery(&self.fault_timeline(), first_crash_at, RECOVERY_TOLERANCE);
        report
    }

    /// Records one planned request into the windowed hit-rate timeline.
    fn record_fault_window(&mut self, now: f64, reused: u64, total: u64) {
        let bucket = (now.max(0.0) / FAULT_WINDOW_SECS) as usize;
        let buckets = &mut self.faults.buckets;
        if bucket >= buckets.len() {
            buckets.resize(bucket + 1, (0, 0));
        }
        buckets[bucket].0 += reused;
        buckets[bucket].1 += total;
    }

    /// Replaces the prefix-selection policy (e.g. with the clairvoyant
    /// [`bat_sched::OraclePolicy`] for the scheduling ablation).
    pub fn set_policy(&mut self, policy: Box<dyn PromptPolicy>) {
        self.policy = policy;
    }

    /// Plans one request arriving at `now` (seconds).
    ///
    /// The prefix decision is made on the *pre-access* frequency estimate:
    /// `f_u` predicts the user's future rate from past behavior (§5.3), so
    /// the current arrival must not count toward its own admission —
    /// otherwise every first-time user looks hot and pollutes the cache
    /// with compulsory misses, the precise failure §5.3 attributes to
    /// cache-agnostic scheduling.
    pub fn plan(&mut self, req: &RankRequest, now: f64) -> PlannedJob {
        self.advance_faults(now);
        let total = req.total_tokens() as u64;
        let mut job = PlannedJob {
            prefix: PrefixKind::User,
            suffix_tokens: total,
            context_tokens: total,
            local_load: Bytes::ZERO,
            remote_bytes: Bytes::ZERO,
            net_extra_secs: 0.0,
        };
        if !self.caching {
            return job;
        }
        // A stalled meta service answers no lookups: the request cannot
        // locate any cached prefix and recomputes everything. Accesses are
        // not recorded either — the stalled service is the frequency book.
        if self.faults.view.meta_stalled(now) {
            self.faults.report.stall_forced_recomputes += 1;
            job.prefix = PrefixKind::Item;
            self.record_fault_window(now, 0, total);
            return job;
        }
        let kind = self.policy.decide(req, &mut self.user_cache, now);
        self.user_cache.record_access(req.user, now);
        // The meta service is the frequency book: every access lands in its
        // replicated hotness table.
        self.meta.touch(req.user.into(), now);
        job.prefix = kind;
        match kind {
            PrefixKind::User => {
                let user_bytes = self.compute.kv_bytes(req.user_tokens as u64);
                if self.user_cache.lookup(req.user, now).is_some() {
                    // Prefix hit: only items + instructions are computed.
                    job.suffix_tokens = total - req.user_tokens as u64;
                    job.local_load = user_bytes;
                    self.tiers.note_hot_hit(req.user.into(), user_bytes, now);
                } else {
                    // Hot miss: probe the cold tier before recomputing. A
                    // cold hit streams the quantized prefix from local
                    // storage (priced as extra network-path time) instead
                    // of recomputing it.
                    let pool = &mut self.tiers;
                    let cold = pool.cold_lookup(req.user.into(), user_bytes, now);
                    if let Some(cold_bytes) = cold {
                        job.suffix_tokens = total - req.user_tokens as u64;
                        job.net_extra_secs += pool.cold_load_secs(cold_bytes);
                    }
                    // Admit the (recomputed or cold-served) prefix into the
                    // hot region under the configured discipline.
                    let outcome = match self.admission {
                        AdmissionKind::Lru => self.user_cache.admit_lru(req.user, user_bytes),
                        AdmissionKind::HotnessAware => {
                            self.user_cache.admit_if_hotter(req.user, user_bytes, now)
                        }
                    };
                    if let AdmitOutcome::Admitted { evicted } = outcome {
                        let resident = self
                            .user_cache
                            .entry_bytes(req.user)
                            .expect("entry was just admitted");
                        // Mirror the admission churn into the meta index:
                        // evictions unregister, the new resident registers
                        // its page-rounded footprint.
                        for victim in &evicted {
                            self.meta.evict((*victim).into(), now);
                        }
                        self.meta.register(req.user.into(), resident.as_u64(), now);
                        // Evicted residents demote into the cold tier at
                        // their quantized size; a cold-served entry now
                        // lives hot, so its cold copy is released.
                        let pool = &mut self.tiers;
                        for victim in evicted {
                            pool.demote_hot(victim.into());
                        }
                        if cold.is_some() {
                            pool.promote(req.user.into());
                        }
                        pool.register_hot(req.user.into(), resident);
                    } else if cold.is_none() {
                        // The hot region rejected the prefix (not hot
                        // enough to evict a resident). Park the freshly
                        // recomputed KV in the quantized cold tier rather
                        // than discarding the work; a cold-served entry
                        // is already there.
                        self.tiers.demote(req.user.into(), user_bytes, now);
                    }
                }
            }
            PrefixKind::Item => {
                if let Some(freq) = &mut self.item_freq {
                    for &item in &req.candidates {
                        freq.record(item, now);
                    }
                }
                if let Some(plan) = &self.placement {
                    let mut reused = 0u64;
                    let fs = &mut self.faults;
                    for (i, &item) in req.candidates.iter().enumerate() {
                        let tokens = req.candidate_tokens[i] as u64;
                        let bytes = self.compute.kv_bytes(tokens);
                        // Each arm either serves the item from a hot copy
                        // and moves on, or says whether its recompute is a
                        // fault fallback (else the item is uncached).
                        let unreachable = match fs.locate(plan, item) {
                            Lookup::LocalHit => {
                                reused += tokens;
                                job.local_load += bytes;
                                continue;
                            }
                            Lookup::RemoteHit {
                                from_replica,
                                holder,
                                alt,
                            } => {
                                if !from_replica && self.brownout_rung >= 2 {
                                    // Brownout rung 2: a cold sharded pull is
                                    // cheaper to recompute than to fetch
                                    // while the fabric is the bottleneck —
                                    // unless the tiered pool holds a local
                                    // cold copy, which costs no fabric at all.
                                    let pool = &mut self.tiers;
                                    if let Some(cold) =
                                        pool.brownout_cold_serve(item.into(), bytes, now)
                                    {
                                        reused += tokens;
                                        job.net_extra_secs += pool.cold_load_secs(cold);
                                        continue;
                                    }
                                    fs.report.brownout_recomputes += 1;
                                    continue;
                                }
                                reused += tokens;
                                job.remote_bytes += bytes;
                                if from_replica {
                                    fs.report.replica_hits_during_outage += 1;
                                }
                                let f1 = fs.view.link_slow_factor(AFFINITY, holder);
                                if f1 > 1.0 {
                                    let transfer = self.compute.net_transfer_secs(bytes);
                                    if let Some(alt_w) = alt {
                                        // Hedge: dual-issue against the
                                        // alternate replica holder; the first
                                        // response wins, so the effective
                                        // slowdown is the min of the two
                                        // link factors.
                                        fs.report.hedged_pulls += 1;
                                        let f2 = fs.view.link_slow_factor(AFFINITY, alt_w);
                                        if f2 < f1 {
                                            fs.report.hedge_wins += 1;
                                        }
                                        job.net_extra_secs += transfer * (f1.min(f2) - 1.0);
                                    } else {
                                        // Single-holder pull: retry with
                                        // seeded jittered backoff when
                                        // waiting out a transient beats
                                        // enduring the slow link, bounded by
                                        // the deadline slack.
                                        let jitter = fs.retry_rng.gen::<f64>();
                                        let backoff = RETRY_BACKOFF_SECS * (1.0 + jitter);
                                        let slow_extra = transfer * (f1 - 1.0);
                                        let slack = req.slo.deadline_secs.unwrap_or(f64::INFINITY);
                                        if backoff < slow_extra && backoff + transfer <= slack {
                                            fs.report.backoff_retries += 1;
                                            job.net_extra_secs += backoff;
                                        } else {
                                            job.net_extra_secs += slow_extra;
                                        }
                                    }
                                }
                                continue;
                            }
                            Lookup::Recompute => true,
                            Lookup::Uncached => false,
                        };
                        // The one cold path for an item no hot copy serves:
                        // the cold tier is durable local storage, so serve a
                        // resident copy from it, else recompute and write
                        // the result back cold so later accesses hit.
                        let pool = &mut self.tiers;
                        if let Some(cold) = pool.cold_lookup(item.into(), bytes, now) {
                            reused += tokens;
                            job.net_extra_secs += pool.cold_load_secs(cold);
                            continue;
                        }
                        pool.demote(item.into(), bytes, now);
                        if unreachable {
                            fs.report.recompute_fallbacks += 1;
                        }
                    }
                    job.suffix_tokens = total - reused;
                }
            }
        }
        self.record_fault_window(now, job.reused_tokens(), total);
        job
    }

    /// Prices a planned job: `(compute_secs, pcie_load_secs, net_secs)`.
    /// Network time reflects the fault view's current link factor, plus the
    /// job's per-pull slow-link extras (post-hedge inflation and backoff
    /// delays).
    pub fn price(&self, job: &PlannedJob) -> (f64, f64, f64) {
        (
            self.compute
                .prefill_secs(job.suffix_tokens, job.context_tokens),
            self.compute.kv_load_secs(job.local_load),
            self.compute.net_transfer_secs(job.remote_bytes) * self.faults.view.link_factor()
                + job.net_extra_secs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, SystemKind};
    use bat_placement::PlacementStrategy;
    use bat_types::{
        ClusterConfig, DatasetConfig, ItemId, ModelConfig, RequestId, SimTime, UserId,
    };

    fn req(user: u64, user_tokens: u32) -> RankRequest {
        RankRequest {
            id: RequestId::new(0),
            user: UserId::new(user),
            user_tokens,
            candidates: (0..100).map(ItemId::new).collect(),
            candidate_tokens: vec![10; 100],
            instruction_tokens: 32,
            arrival: SimTime::ZERO,
            slo: Default::default(),
        }
    }

    fn planner(kind: SystemKind) -> RequestPlanner {
        let ds = DatasetConfig::industry();
        let cfg = EngineConfig::for_system(
            kind,
            ModelConfig::qwen2_1_5b(),
            ClusterConfig::a100_4node(),
            &ds,
        );
        RequestPlanner::from_config(&cfg)
    }

    #[test]
    fn recompute_plans_full_suffix() {
        let mut p = planner(SystemKind::Recompute);
        let r = req(1, 1500);
        let job = p.plan(&r, 0.0);
        assert_eq!(job.suffix_tokens, r.total_tokens() as u64);
        assert_eq!(job.reused_tokens(), 0);
    }

    #[test]
    fn up_miss_then_hit() {
        let mut p = planner(SystemKind::UserPrefix);
        let r = req(1, 1500);
        let miss = p.plan(&r, 0.0);
        assert_eq!(miss.reused_tokens(), 0, "first request misses");
        let hit = p.plan(&r, 1.0);
        assert_eq!(
            hit.reused_tokens(),
            1500,
            "second request hits the user prefix"
        );
        assert!(hit.local_load > Bytes::ZERO);
    }

    #[test]
    fn ip_reuses_hot_items_immediately() {
        let mut p = planner(SystemKind::ItemPrefix);
        let r = req(1, 1500);
        let job = p.plan(&r, 0.0);
        // Candidates 0..100 are the hottest (replicated) items: all reused.
        assert_eq!(job.reused_tokens(), 1000);
        assert_eq!(job.prefix, PrefixKind::Item);
    }

    #[test]
    fn bat_first_timer_goes_item_returning_user_goes_user() {
        // Constrain the user region to two entries so admission must choose.
        let ds = DatasetConfig::industry();
        let cfg = EngineConfig::for_system(
            SystemKind::Bat,
            ModelConfig::qwen2_1_5b(),
            ClusterConfig::a100_4node(),
            &ds,
        )
        .with_user_cache_capacity(bat_types::Bytes::from_mb(120));
        let mut p = RequestPlanner::from_config(&cfg);

        // Warm the cache to capacity with returning residents (free space
        // admits anyone — there is nothing to pollute).
        for user in [1u64, 2] {
            let resident = req(user, 2000);
            for i in 0..4 {
                let _ = p.plan(&resident, i as f64 * 5.0 + user as f64);
            }
            assert!(p.user_cache.contains(resident.user));
        }

        // A first-time user has a zero pre-access frequency estimate: it
        // must not displace the residents, and falls back to Item-as-prefix.
        let newcomer = req(42, 2000);
        let first = p.plan(&newcomer, 20.0);
        assert_eq!(
            first.prefix,
            PrefixKind::Item,
            "unknown user must not pollute the cache"
        );
        // The newcomer returns repeatedly: prediction rises, UP gets chosen.
        let mut kinds = Vec::new();
        for i in 1..6 {
            kinds.push(p.plan(&newcomer, 20.0 + i as f64 * 10.0).prefix);
        }
        assert!(
            kinds.contains(&PrefixKind::User),
            "a frequently returning user should eventually be scheduled UP: {kinds:?}"
        );
    }

    #[test]
    fn item_refresh_replicates_observed_hotspot() {
        let ds = DatasetConfig::industry();
        let mut cfg = EngineConfig::for_system(
            SystemKind::ItemPrefix,
            ModelConfig::qwen2_1_5b(),
            ClusterConfig::a100_4node(),
            &ds,
        );
        cfg.item_refresh_interval_secs = Some(50.0);
        let mut p = RequestPlanner::from_config(&cfg);
        // Burst hotspot: a request repeatedly hitting a cold-band item.
        let cold_item = ItemId::new(900_000);
        let mut r = req(1, 1500);
        r.candidates[0] = cold_item;
        let before = p.plan(&r, 0.0);
        for t in 1..50 {
            let _ = p.plan(&r, t as f64);
        }
        p.refresh_item_replication(50.0);
        let after = p.plan(&r, 51.0);
        // The hot cold-band item moved into the replicated area: remote
        // traffic cannot be higher than before the refresh.
        assert!(after.remote_bytes <= before.remote_bytes);
    }

    fn fault_state(n: usize) -> FaultState {
        FaultState::new(FaultSchedule::none(n), 0.0, Bytes::new(u64::MAX / 2))
    }

    /// Applies `kind` straight to the view, as the cursor would.
    fn apply(fs: &mut FaultState, at_secs: f64, kind: bat_faults::FaultKind) {
        fs.view
            .apply(&bat_faults::FaultEvent { at_secs, kind })
            .unwrap();
        fs.refresh_reach();
    }

    fn cut(fs: &mut FaultState, a: u64, b: u64) {
        let (a, b) = (WorkerId::new(a), WorkerId::new(b));
        apply(fs, 0.0, bat_faults::FaultKind::CutLink { a, b });
    }

    #[test]
    fn a_warm_cluster_locates_every_item_where_the_plan_puts_it() {
        // Capped corpus: 50 replicated items plus 200 sharded ones fit, the
        // rest of the 1 000 is uncached. The refresh then replicates ids
        // from beyond the cap, which only the replicated area can serve.
        let plan = ItemPlacementPlan::new(PlacementStrategy::Hrcs, 1000, 4, 0.05, 1 << 20);
        let mut plan = plan.fit_to_capacity(Bytes::new(100 << 20));
        assert!(plan.cached_items() < plan.num_items());
        plan.refresh_replicated((900..950).map(ItemId::new));
        let mut fs = fault_state(4);
        for id in 0..plan.num_items() {
            let item = ItemId::new(id);
            let located = match fs.locate(&plan, item) {
                Lookup::LocalHit => None,
                Lookup::RemoteHit { holder, .. } => Some(ItemLocation::Remote(holder)),
                Lookup::Recompute => panic!("item {id}: a warm cluster recomputes nothing"),
                Lookup::Uncached => Some(ItemLocation::Uncached),
            };
            let planned = match plan.locate(item, AFFINITY) {
                ItemLocation::LocalReplica | ItemLocation::LocalShard => None,
                other => Some(other),
            };
            assert_eq!(located, planned, "item {id}");
        }
        assert_eq!(fs.report, FaultReport::default());
    }

    #[test]
    fn replicated_lookup_skips_unreachable_holders() {
        let plan = ItemPlacementPlan::new(PlacementStrategy::Hrcs, 1000, 4, 0.1, 1 << 20);
        let mut fs = fault_state(4);
        // Affinity worker 0 is alive but its cache is cold (e.g. pending
        // re-warm), so the replicated hit must come from another holder.
        fs.warm_incarnation[0] = u64::MAX;
        cut(&mut fs, 0, 1);
        cut(&mut fs, 0, 2);
        let hot = ItemId::new(5);
        assert!(plan.is_replicated(hot));
        assert!(matches!(
            fs.locate(&plan, hot),
            Lookup::RemoteHit {
                from_replica: true,
                ..
            }
        ));
        assert_eq!(
            fs.report.unreachable_kv_fallbacks, 1,
            "workers 1 and 2 were warm but cut off; worker 3 served"
        );
        // Cutting the last link leaves no reachable holder: recompute.
        cut(&mut fs, 0, 3);
        assert!(matches!(fs.locate(&plan, hot), Lookup::Recompute));
        assert_eq!(fs.report.unreachable_kv_fallbacks, 2);
    }

    #[test]
    fn sharded_lookup_respects_partition() {
        let plan = ItemPlacementPlan::new(PlacementStrategy::HashShard, 1000, 4, 0.0, 1 << 20);
        let mut fs = fault_state(4);
        let item = ItemId::new(9); // owner = 9 % 4 = 1
        assert!(matches!(
            fs.locate(&plan, item),
            Lookup::RemoteHit {
                from_replica: false,
                ..
            }
        ));
        cut(&mut fs, 0, 1);
        assert!(
            matches!(fs.locate(&plan, item), Lookup::Recompute),
            "a warm owner behind a cut link must not serve a remote hit"
        );
        assert_eq!(fs.report.unreachable_kv_fallbacks, 1);
    }

    #[test]
    fn adoption_waits_for_reachable_adopter() {
        let plan = ItemPlacementPlan::new(PlacementStrategy::HashShard, 1000, 4, 0.0, 1 << 20);
        let mut fs = fault_state(4);
        // Crash the owner of item 9 (worker 1) and re-plan around it.
        apply(
            &mut fs,
            0.0,
            bat_faults::FaultKind::WorkerCrash(WorkerId::new(1)),
        );
        let alive = fs.view.alive_mask().to_vec();
        fs.degraded = Some(DegradedPlacement::new(
            &plan,
            &alive,
            Bytes::new(u64::MAX / 2),
        ));
        let item = ItemId::new(9);
        let DegradedLocation::Adopted(target) = fs.degraded.as_ref().unwrap().locate(item) else {
            panic!("dead owner's entry should be adopted");
        };
        assert_ne!(target.index(), 1, "dead worker cannot adopt");
        if target.index() != 0 {
            // While the adopter is cut off, every access recomputes and the
            // write-back is withheld (it could not reach the adopter).
            cut(&mut fs, 0, target.as_u64());
            assert!(matches!(fs.locate(&plan, item), Lookup::Recompute));
            assert!(matches!(fs.locate(&plan, item), Lookup::Recompute));
            assert!(!fs.warmed_adopted.contains(&item.as_u64()));
            assert_eq!(fs.report.unreachable_kv_fallbacks, 2);
            // Heal the link: the first access warms the adopter, the next
            // one hits it remotely.
            let a = WorkerId::new(0);
            apply(
                &mut fs,
                1.0,
                bat_faults::FaultKind::HealLink { a, b: target },
            );
        }
        assert!(matches!(fs.locate(&plan, item), Lookup::Recompute));
        assert!(fs.warmed_adopted.contains(&item.as_u64()));
        assert!(!matches!(
            fs.locate(&plan, item),
            Lookup::Recompute | Lookup::Uncached
        ));
    }

    #[test]
    fn pricing_is_consistent_with_cost_model() {
        let mut p = planner(SystemKind::Recompute);
        let r = req(1, 1500);
        let job = p.plan(&r, 0.0);
        let (c, l, n) = p.price(&job);
        assert!(c > 0.0);
        assert_eq!(l, 0.0);
        assert_eq!(n, 0.0);
        let direct = p
            .compute
            .prefill_secs(job.suffix_tokens, job.context_tokens);
        assert_eq!(c, direct);
    }

    fn faulted_planner(kind: SystemKind, events: Vec<bat_faults::FaultEvent>) -> RequestPlanner {
        let ds = DatasetConfig::industry();
        let cfg = EngineConfig::for_system(
            kind,
            ModelConfig::qwen2_1_5b(),
            ClusterConfig::a100_4node(),
            &ds,
        )
        .with_faults(Some(
            bat_faults::FaultSchedule::new(4, events).expect("valid schedule"),
        ));
        RequestPlanner::from_config(&cfg)
    }

    fn slow(a: u64, b: u64, factor: f64) -> bat_faults::FaultEvent {
        bat_faults::FaultEvent {
            at_secs: 0.0,
            kind: bat_faults::FaultKind::SlowLink {
                a: WorkerId::new(a),
                b: WorkerId::new(b),
                factor,
            },
        }
    }

    /// Request whose candidates are all cold-band sharded items owned by
    /// worker 1 (`id % 4 == 1`): single-holder remote pulls, no hedge target.
    fn sharded_req() -> RankRequest {
        let mut r = req(1, 1500);
        for (i, c) in r.candidates.iter_mut().enumerate() {
            *c = ItemId::new(900_001 + 4 * i as u64);
        }
        r
    }

    #[test]
    fn slow_link_hedges_replicated_pulls() {
        let mut p = faulted_planner(SystemKind::ItemPrefix, vec![slow(0, 1, 4.0)]);
        p.advance_faults(0.0);
        // Cold affinity worker (re-warm pending indefinitely): the replicated
        // hits must be served remotely, and holder order makes worker 1 (slow
        // link) primary, worker 2 the hedge target.
        p.faults.warm_incarnation[0] = u64::MAX;
        p.faults.rewarm_ready_at[0] = f64::INFINITY;
        p.faults.refresh_reach();
        let r = req(1, 1500);
        let job = p.plan(&r, 0.0);
        let report = &p.faults.report;
        assert_eq!(report.hedged_pulls, 100, "every replicated pull hedged");
        assert_eq!(
            report.hedge_wins, 100,
            "the alternate holder rides an unaffected link and always wins"
        );
        assert_eq!(report.backoff_retries, 0);
        assert_eq!(
            job.net_extra_secs, 0.0,
            "a winning hedge pays no slow-link surcharge"
        );
    }

    #[test]
    fn slow_link_single_holder_retries_with_seeded_backoff() {
        // Factor large enough that waiting out the transient always beats
        // enduring the slow transfer.
        let mut p = faulted_planner(SystemKind::ItemPrefix, vec![slow(0, 1, 1e6)]);
        p.advance_faults(0.0);
        let r = sharded_req();
        let job = p.plan(&r, 0.0);
        assert_eq!(p.faults.report.backoff_retries, 100);
        assert_eq!(
            p.faults.report.hedged_pulls, 0,
            "single holder has no hedge target"
        );
        assert!(job.net_extra_secs > 0.0);
        let (_, _, n) = p.price(&job);
        assert!(
            n >= job.net_extra_secs,
            "the network price must carry the backoff surcharge"
        );
        // The jitter stream is seeded: an identical planner reproduces the
        // exact surcharge bit for bit.
        let mut q = faulted_planner(SystemKind::ItemPrefix, vec![slow(0, 1, 1e6)]);
        q.advance_faults(0.0);
        assert_eq!(q.plan(&r, 0.0).net_extra_secs, job.net_extra_secs);
    }

    #[test]
    fn backoff_respects_deadline_slack() {
        let mut p = faulted_planner(SystemKind::ItemPrefix, vec![slow(0, 1, 1e6)]);
        p.advance_faults(0.0);
        let mut r = sharded_req();
        // Slack tighter than the minimum backoff: the planner must endure
        // the slow link rather than burn the budget waiting to retry.
        r.slo = bat_types::SloBudget::with_deadline(1e-3);
        let job = p.plan(&r, 0.0);
        assert_eq!(p.faults.report.backoff_retries, 0);
        assert!(
            job.net_extra_secs > 1.0,
            "enduring a 1e6x slowdown is expensive: {}",
            job.net_extra_secs
        );
    }

    #[test]
    fn brownout_rung_two_degrades_cold_pulls_to_recompute() {
        let mut p = faulted_planner(SystemKind::ItemPrefix, vec![]);
        p.set_brownout_rung(2);
        let r = sharded_req();
        let job = p.plan(&r, 0.0);
        let report = &p.faults.report;
        assert_eq!(report.brownout_recomputes, 100);
        assert_eq!(report.brownout_transitions, 1);
        assert_eq!(report.max_brownout_rung, 2);
        assert_eq!(job.remote_bytes, Bytes::ZERO);
        assert_eq!(job.reused_tokens(), 0, "cold pulls degraded to recompute");
    }

    #[test]
    fn brownout_rung_two_needs_no_fault_schedule() {
        let mut p = planner(SystemKind::ItemPrefix);
        p.set_brownout_rung(2);
        let job = p.plan(&sharded_req(), 0.0);
        assert_eq!(job.remote_bytes, Bytes::ZERO);
        assert_eq!(job.reused_tokens(), 0, "cold pulls degraded to recompute");
    }

    #[test]
    fn brownout_rung_one_suspends_replication_refresh() {
        let mut p = faulted_planner(SystemKind::ItemPrefix, vec![]);
        p.set_brownout_rung(1);
        p.refresh_item_replication(1.0);
        assert_eq!(p.faults.report.suspended_refreshes, 1);
        // Stepping back down resumes the background refresh.
        p.set_brownout_rung(0);
        p.refresh_item_replication(2.0);
        let report = &p.faults.report;
        assert_eq!(report.suspended_refreshes, 1);
        assert_eq!(report.max_brownout_rung, 1);
        assert_eq!(report.brownout_transitions, 2);
    }
}
