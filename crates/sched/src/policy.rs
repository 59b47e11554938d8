//! Prefix-selection policies.
//!
//! §5.3 formalizes the decision: for a request `r` with user token length
//! `τ_u(r)` and item token length `τ_i(r)`,
//!
//! ```text
//! prefix(r) = user,  if τ_u(r) ≥ τ_i(r) ∧ f_u(r) > min_{p ∈ C_u} f_p
//!             item,  otherwise
//! ```
//!
//! where `C_u` is the set of cached user entries and `f` the sliding-window
//! frequency estimate maintained by the cache meta service.

use bat_kvcache::UserCache;
use bat_types::{PrefixKind, RankRequest};

/// A prefix-selection policy consulted once per request.
///
/// Policies may inspect (and sample from) the user cache, but admission and
/// eviction are performed by the serving engine after the decision — the
/// policy only chooses the attention pattern.
pub trait PromptPolicy: Send {
    /// Chooses the prompt prefix for `req` at time `now`.
    fn decide(&self, req: &RankRequest, user_cache: &mut UserCache, now: f64) -> PrefixKind;

    /// Degraded-mode hook (fault recovery): the fraction of the item pool
    /// currently reachable, in `[0, 1]`. The planner calls this on every
    /// change of warm membership; policies that account for item
    /// availability ([`HotnessAwarePolicy`]) react, the rest ignore it.
    fn set_item_availability(&mut self, _frac: f64) {}
}

/// Always the same prefix: the UP and IP baselines of §6.1.
#[derive(Debug, Clone, Copy)]
pub struct StaticPolicy(pub PrefixKind);

impl PromptPolicy for StaticPolicy {
    fn decide(&self, _req: &RankRequest, _cache: &mut UserCache, _now: f64) -> PrefixKind {
        self.0
    }
}

/// The cache-agnostic greedy baseline (§5.3, Figure 8): pick whichever
/// block is longer, ignoring cache state entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheAgnosticPolicy;

impl PromptPolicy for CacheAgnosticPolicy {
    fn decide(&self, req: &RankRequest, _cache: &mut UserCache, _now: f64) -> PrefixKind {
        if req.user_tokens >= req.item_tokens() {
            PrefixKind::User
        } else {
            PrefixKind::Item
        }
    }
}

/// BAT's hotness-aware policy (§5.3).
///
/// Chooses *User-as-prefix* when the user block is the longer one and the
/// user is already cached (free reuse). For an uncached user, going UP
/// means recomputing the whole prompt *now* (forgoing the shared item
/// cache's τ_i reused tokens) to save τ_u tokens on each near-future
/// repeat — worthwhile only if the predicted window frequency covers the
/// cost (`f_u · τ_u > τ_i`) and, when the cache is full, the user is
/// hotter than the coldest residents (`f_u > min_{p∈C_u} f_p`). This is
/// the paper's rule with the miss-side opportunity cost made explicit
/// ("maximize access frequency per unit of cache space", §5.3).
///
/// When cache workers are down, part of the item pool is unreachable: an IP
/// request then reuses only the *available* fraction of its item tokens, so
/// the foregone reuse shrinks to `availability · τ_i` and User-as-prefix
/// becomes correspondingly more attractive. On a healthy cluster the
/// availability is 1.0 and the multiply is exact.
#[derive(Debug, Clone, Copy)]
pub struct HotnessAwarePolicy {
    /// KV bytes per token of the served model, used to size the incoming
    /// user entry against free cache space.
    pub kv_bytes_per_token: u64,
    /// Reachable fraction of the item pool, in `[0, 1]`; set through
    /// [`PromptPolicy::set_item_availability`].
    item_availability: f64,
}

impl HotnessAwarePolicy {
    /// Creates the policy for a model storing `kv_bytes_per_token` per
    /// token, at full item availability.
    pub fn new(kv_bytes_per_token: u64) -> Self {
        HotnessAwarePolicy {
            kv_bytes_per_token,
            item_availability: 1.0,
        }
    }
}

impl PromptPolicy for HotnessAwarePolicy {
    fn decide(&self, req: &RankRequest, user_cache: &mut UserCache, now: f64) -> PrefixKind {
        let tau_u = req.user_tokens as f64;
        let tau_i = req.item_tokens() as f64 * self.item_availability;
        if tau_u < tau_i {
            return PrefixKind::Item;
        }
        // A cached user's prefix is free to reuse: always take it.
        if user_cache.contains(req.user) {
            return PrefixKind::User;
        }
        // Miss side: expected near-future reuse must beat the item reuse
        // foregone on this request.
        let f_u = user_cache.freq_per_window(req.user, now);
        if f_u * tau_u <= tau_i {
            return PrefixKind::Item;
        }
        // Admission without eviction pollutes nothing; otherwise the user
        // must be hotter than the coldest cached residents.
        let entry = bat_types::Bytes::new(req.user_tokens as u64 * self.kv_bytes_per_token);
        if user_cache.capacity().saturating_sub(user_cache.used()) >= entry {
            return PrefixKind::User;
        }
        match user_cache.min_cached_freq(now) {
            None => PrefixKind::User,
            Some((_, min_f)) => {
                if f_u > min_f {
                    PrefixKind::User
                } else {
                    PrefixKind::Item
                }
            }
        }
    }

    fn set_item_availability(&mut self, frac: f64) {
        self.item_availability = frac.clamp(0.0, 1.0);
    }
}

/// A clairvoyant upper bound for the scheduling ablation: decides with the
/// user's *true* future request count in the window (read from the trace)
/// instead of the estimator's prediction. Not realizable online — it bounds
/// how much the hotness-aware policy leaves on the table.
#[derive(Debug, Clone)]
pub struct OraclePolicy {
    arrivals: std::collections::HashMap<bat_types::UserId, Vec<f64>>,
    window_secs: f64,
    kv_bytes_per_token: u64,
}

impl OraclePolicy {
    /// Builds the oracle from the trace's `(arrival_secs, user)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `window_secs` is not positive.
    pub fn from_arrivals(
        arrivals: impl IntoIterator<Item = (f64, bat_types::UserId)>,
        window_secs: f64,
        kv_bytes_per_token: u64,
    ) -> Self {
        assert!(window_secs > 0.0, "window must be positive");
        let mut map: std::collections::HashMap<bat_types::UserId, Vec<f64>> =
            std::collections::HashMap::new();
        for (t, u) in arrivals {
            map.entry(u).or_default().push(t);
        }
        for v in map.values_mut() {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        }
        OraclePolicy {
            arrivals: map,
            window_secs,
            kv_bytes_per_token,
        }
    }

    /// The user's true request count in `(now, now + window]`.
    pub fn future_requests(&self, user: bat_types::UserId, now: f64) -> usize {
        match self.arrivals.get(&user) {
            None => 0,
            Some(times) => {
                let lo = times.partition_point(|&t| t <= now);
                let hi = times.partition_point(|&t| t <= now + self.window_secs);
                hi - lo
            }
        }
    }
}

impl PromptPolicy for OraclePolicy {
    fn decide(&self, req: &RankRequest, user_cache: &mut UserCache, now: f64) -> PrefixKind {
        let tau_u = req.user_tokens as f64;
        let tau_i = req.item_tokens() as f64;
        if tau_u < tau_i {
            return PrefixKind::Item;
        }
        if user_cache.contains(req.user) {
            return PrefixKind::User;
        }
        // Differential analysis with perfect knowledge: admitting as UP
        // forgoes τ_i of item reuse now, and each of the k true future
        // requests saves τ_u instead of the τ_i it would have reused under
        // IP — worthwhile iff k·(τ_u − τ_i) > τ_i.
        let f_true = self.future_requests(req.user, now) as f64;
        if f_true * (tau_u - tau_i) <= tau_i {
            return PrefixKind::Item;
        }
        let entry = bat_types::Bytes::new(req.user_tokens as u64 * self.kv_bytes_per_token);
        if user_cache.capacity().saturating_sub(user_cache.used()) >= entry {
            return PrefixKind::User;
        }
        match user_cache.min_cached_freq(now) {
            None => PrefixKind::User,
            Some((_, min_f)) => {
                if f_true > min_f {
                    PrefixKind::User
                } else {
                    PrefixKind::Item
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_kvcache::UserCacheConfig;
    use bat_types::{Bytes, ItemId, RequestId, SimTime, UserId};

    fn req(user: u64, user_tokens: u32, item_tokens_each: u32, n_items: usize) -> RankRequest {
        RankRequest {
            id: RequestId::new(0),
            user: UserId::new(user),
            user_tokens,
            candidates: (0..n_items as u64).map(ItemId::new).collect(),
            candidate_tokens: vec![item_tokens_each; n_items],
            instruction_tokens: 32,
            arrival: SimTime::ZERO,
            slo: Default::default(),
        }
    }

    fn cache(capacity: u64) -> UserCache {
        UserCache::new(UserCacheConfig {
            capacity: Bytes::new(capacity),
            freq_window_secs: 60.0,
            min_freq_sample: 4,
            page_bytes: 1,
        })
    }

    #[test]
    fn static_policies_ignore_everything() {
        let mut c = cache(100);
        let r = req(1, 10, 100, 10);
        assert_eq!(
            StaticPolicy(PrefixKind::User).decide(&r, &mut c, 0.0),
            PrefixKind::User
        );
        assert_eq!(
            StaticPolicy(PrefixKind::Item).decide(&r, &mut c, 0.0),
            PrefixKind::Item
        );
    }

    #[test]
    fn cache_agnostic_picks_longer_block() {
        let mut c = cache(100);
        let long_user = req(1, 2000, 10, 100); // 2000 vs 1000
        let short_user = req(1, 500, 10, 100); // 500 vs 1000
        assert_eq!(
            CacheAgnosticPolicy.decide(&long_user, &mut c, 0.0),
            PrefixKind::User
        );
        assert_eq!(
            CacheAgnosticPolicy.decide(&short_user, &mut c, 0.0),
            PrefixKind::Item
        );
    }

    #[test]
    fn hotness_aware_short_profile_goes_item() {
        let mut c = cache(1000);
        let r = req(1, 500, 10, 100);
        assert_eq!(
            HotnessAwarePolicy::new(1).decide(&r, &mut c, 0.0),
            PrefixKind::Item
        );
    }

    #[test]
    fn hotness_aware_cached_user_stays_user() {
        let mut c = cache(1000);
        c.admit_lru(UserId::new(1), Bytes::new(100));
        let r = req(1, 2000, 10, 100);
        assert_eq!(
            HotnessAwarePolicy::new(1).decide(&r, &mut c, 0.0),
            PrefixKind::User
        );
    }

    #[test]
    fn hotness_aware_empty_cache_admits_predicted_returner() {
        let mut c = cache(100_000);
        // A user with no history has no predicted reuse: even an empty
        // cache schedules them Item-as-prefix.
        let r = req(7, 2000, 10, 100);
        assert_eq!(
            HotnessAwarePolicy::new(1).decide(&r, &mut c, 0.0),
            PrefixKind::Item
        );
        // Once the window frequency predicts enough repeats to beat the
        // foregone item reuse, the empty cache admits them.
        for t in 0..5 {
            c.record_access(UserId::new(7), t as f64 * 10.0);
        }
        assert_eq!(
            HotnessAwarePolicy::new(1).decide(&r, &mut c, 50.0),
            PrefixKind::User
        );
    }

    #[test]
    fn hotness_aware_cold_user_deflects_to_item() {
        let mut c = cache(100);
        // Resident hot user.
        for t in 0..30 {
            c.record_access(UserId::new(1), t as f64);
        }
        c.admit_lru(UserId::new(1), Bytes::new(100));
        // Newcomer with one access: colder than the resident.
        c.record_access(UserId::new(2), 30.0);
        let r = req(2, 2000, 10, 100);
        assert_eq!(
            HotnessAwarePolicy::new(1).decide(&r, &mut c, 30.0),
            PrefixKind::Item
        );
    }

    #[test]
    fn oracle_counts_future_requests_in_window() {
        let arrivals = vec![
            (1.0, UserId::new(7)),
            (5.0, UserId::new(7)),
            (50.0, UserId::new(7)),
            (2.0, UserId::new(8)),
        ];
        let oracle = OraclePolicy::from_arrivals(arrivals, 10.0, 1);
        assert_eq!(oracle.future_requests(UserId::new(7), 0.0), 2);
        assert_eq!(oracle.future_requests(UserId::new(7), 5.0), 0);
        assert_eq!(oracle.future_requests(UserId::new(7), 45.0), 1);
        assert_eq!(oracle.future_requests(UserId::new(9), 0.0), 0);
    }

    #[test]
    fn oracle_schedules_returning_user_up_and_oneshot_item() {
        let mut c = cache(100_000);
        let returning = req(7, 2000, 10, 100);
        let oneshot = req(8, 2000, 10, 100);
        let oracle = OraclePolicy::from_arrivals(
            vec![
                (0.0, UserId::new(7)),
                (3.0, UserId::new(7)),
                (6.0, UserId::new(7)),
                (0.0, UserId::new(8)),
            ],
            60.0,
            1,
        );
        assert_eq!(oracle.decide(&returning, &mut c, 0.0), PrefixKind::User);
        assert_eq!(oracle.decide(&oneshot, &mut c, 0.5), PrefixKind::Item);
    }

    #[test]
    fn degraded_mode_biases_toward_user_prefix() {
        let mut c = cache(100_000);
        // Profile barely shorter than the item block: base rule goes Item.
        let r = req(7, 900, 10, 100); // τ_u = 900, τ_i = 1000
        for t in 0..5 {
            c.record_access(UserId::new(7), t as f64 * 10.0);
        }
        let mut policy = HotnessAwarePolicy::new(1);
        assert_eq!(policy.item_availability, 1.0);
        assert_eq!(policy.decide(&r, &mut c, 50.0), PrefixKind::Item);
        // Half the item pool dies: the foregone item reuse halves and the
        // same request flips to User-as-prefix.
        policy.set_item_availability(0.5);
        assert_eq!(policy.decide(&r, &mut c, 50.0), PrefixKind::User);
        // Recovery restores the base decision; other policies ignore the hook.
        policy.set_item_availability(1.0);
        assert_eq!(policy.decide(&r, &mut c, 50.0), PrefixKind::Item);
        StaticPolicy(PrefixKind::Item).set_item_availability(0.0);
    }

    #[test]
    fn hotness_aware_hot_user_displaces() {
        let mut c = cache(100);
        c.record_access(UserId::new(1), 0.0);
        c.admit_lru(UserId::new(1), Bytes::new(100));
        // Newcomer far hotter than the stale resident.
        for t in 0..30 {
            c.record_access(UserId::new(2), 600.0 + t as f64);
        }
        let r = req(2, 2000, 10, 100);
        assert_eq!(
            HotnessAwarePolicy::new(1).decide(&r, &mut c, 630.0),
            PrefixKind::User
        );
    }
}
