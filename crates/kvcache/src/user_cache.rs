//! The user-prefix cache region of the disaggregated pool.
//!
//! Two admission/replacement disciplines back the paper's comparisons:
//!
//! * **plain LRU** ([`UserCache::admit_lru`]) — what the UP baseline and the
//!   cache-agnostic scheduler use (§3.3.2, §5.3): always admit, evicting the
//!   least-recently-used entries until the new one fits;
//! * **hotness-aware** ([`UserCache::admit_if_hotter`]) — BAT's rule (§5.3):
//!   admit only if the incoming user's window frequency exceeds the
//!   frequency of the coldest cached users (`f_u(r) > min_{p∈C_u} f_p`),
//!   evicting those colder entries; otherwise reject, leaving the request to
//!   fall back to Item-as-prefix.
//!
//! The min-frequency lookup uses Redis-style deterministic sampling (the
//! paper's meta service maintains hotness asynchronously; an exact global
//! minimum over ~10⁵ decaying counters would be needlessly expensive).

use crate::hotness::FreqEstimator;
use crate::lru::LruIndex;
use bat_types::{Bytes, UserId};
use std::collections::{HashMap, HashSet};

/// Configuration of the user-prefix region.
#[derive(Debug, Clone)]
pub struct UserCacheConfig {
    /// Capacity in bytes.
    pub capacity: Bytes,
    /// Sliding window `W` of the frequency estimator, seconds.
    pub freq_window_secs: f64,
    /// Sample size for the approximate min-frequency search.
    pub min_freq_sample: usize,
    /// Page size of the PagedAttention-compatible allocator (§5.1): entry
    /// footprints round up to whole pages. The default matches vLLM-style
    /// 16-token pages of a Qwen2-1.5B KV layout (16 × 28 672 B).
    pub page_bytes: u64,
}

impl Default for UserCacheConfig {
    fn default() -> Self {
        UserCacheConfig {
            capacity: Bytes::from_gb(100),
            freq_window_secs: 300.0,
            min_freq_sample: 8,
            page_bytes: 16 * 28_672,
        }
    }
}

/// Result of an admission attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// The entry was cached; `evicted` lists the entries displaced.
    Admitted {
        /// Users whose entries were evicted to make room.
        evicted: Vec<UserId>,
    },
    /// The entry was not cached (too cold, or larger than the region).
    Rejected,
}

/// The user-prefix cache region.
///
/// ```
/// use bat_kvcache::{AdmitOutcome, UserCache, UserCacheConfig};
/// use bat_types::{Bytes, UserId};
///
/// let mut cache = UserCache::new(UserCacheConfig::default());
/// let user = UserId::new(7);
/// cache.record_access(user, 0.0);
/// assert!(cache.lookup(user, 0.0).is_none(), "not yet admitted");
/// assert_ne!(cache.admit_lru(user, Bytes::from_mb(29)), AdmitOutcome::Rejected);
/// assert!(cache.lookup(user, 1.0).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct UserCache {
    cfg: UserCacheConfig,
    used: Bytes,
    entries: HashMap<UserId, Bytes>,
    lru: LruIndex<UserId>,
    freq: FreqEstimator<UserId>,
    /// Dense key list + back-index for O(1) deterministic sampling.
    keys: Vec<UserId>,
    key_idx: HashMap<UserId, usize>,
    rng_state: u64,
}

impl UserCache {
    /// Creates an empty region.
    pub fn new(cfg: UserCacheConfig) -> Self {
        assert!(cfg.page_bytes > 0, "page size must be positive");
        UserCache {
            freq: FreqEstimator::new(cfg.freq_window_secs),
            cfg,
            used: Bytes::ZERO,
            entries: HashMap::new(),
            lru: LruIndex::new(),
            keys: Vec::new(),
            key_idx: HashMap::new(),
            rng_state: 0x5eed_5eed_5eed_5eed,
        }
    }

    /// Records a request by `user` at `now`, updating the frequency
    /// estimate. Call for **every** request, hit or miss — the meta service
    /// tracks hotness independently of cache residency (§5.1).
    pub fn record_access(&mut self, user: UserId, now: f64) -> f64 {
        self.freq.record(user, now)
    }

    /// Cache lookup: on hit, touches the LRU stamp and returns the entry
    /// size.
    pub fn lookup(&mut self, user: UserId, _now: f64) -> Option<Bytes> {
        let bytes = *self.entries.get(&user)?;
        self.lru.touch(user);
        Some(bytes)
    }

    /// Whether `user` is cached (no LRU side effect).
    pub fn contains(&self, user: UserId) -> bool {
        self.entries.contains_key(&user)
    }

    /// The page-rounded resident size of `user`'s entry, without touching
    /// the LRU stamp — what the meta service records for the entry.
    pub fn entry_bytes(&self, user: UserId) -> Option<Bytes> {
        self.entries.get(&user).copied()
    }

    /// The user's estimated requests-per-window at `now`.
    pub fn freq_per_window(&self, user: UserId, now: f64) -> f64 {
        self.freq.per_window(&user, now)
    }

    /// Bytes in use.
    pub fn used(&self) -> Bytes {
        self.used
    }

    /// Region capacity.
    pub fn capacity(&self) -> Bytes {
        self.cfg.capacity
    }

    /// Number of cached users.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Plain-LRU admission: evicts least-recently-used entries until the new
    /// entry fits, then admits. Rejects only entries larger than the region.
    pub fn admit_lru(&mut self, user: UserId, bytes: Bytes) -> AdmitOutcome {
        let bytes = self.round_to_pages(bytes);
        if bytes > self.cfg.capacity {
            return AdmitOutcome::Rejected;
        }
        if self.entries.contains_key(&user) {
            self.lru.touch(user);
            return AdmitOutcome::Admitted { evicted: vec![] };
        }
        let mut evicted = Vec::new();
        while self.used + bytes > self.cfg.capacity {
            let victim = self
                .lru
                .pop_lru()
                .expect("used > 0 implies a cached entry exists");
            self.remove_entry(victim);
            evicted.push(victim);
        }
        self.insert_entry(user, bytes);
        AdmitOutcome::Admitted { evicted }
    }

    /// Hotness-aware admission (§5.3): admits if the entry fits in free
    /// space, or if the incoming user's window frequency strictly exceeds
    /// the (sampled) minimum frequency of cached users — evicting those
    /// colder entries. Otherwise rejects.
    pub fn admit_if_hotter(&mut self, user: UserId, bytes: Bytes, now: f64) -> AdmitOutcome {
        let bytes = self.round_to_pages(bytes);
        if bytes > self.cfg.capacity {
            return AdmitOutcome::Rejected;
        }
        if self.entries.contains_key(&user) {
            self.lru.touch(user);
            return AdmitOutcome::Admitted { evicted: vec![] };
        }
        let incoming = self.freq.per_window(&user, now);
        let mut victims: Vec<UserId> = Vec::new();
        let mut marked: HashSet<UserId> = HashSet::new();
        let mut freed = self.cfg.capacity.saturating_sub(self.used);
        while freed < bytes {
            let Some((victim, victim_freq)) = self.sampled_min_freq(now, &marked) else {
                return AdmitOutcome::Rejected;
            };
            if victim_freq >= incoming {
                // The coldest cached users are still at least as hot as the
                // incoming one: do not pollute the cache (§5.3).
                return AdmitOutcome::Rejected;
            }
            freed += self.entries[&victim];
            marked.insert(victim);
            victims.push(victim);
        }
        for &v in &victims {
            self.remove_entry(v);
        }
        self.insert_entry(user, bytes);
        AdmitOutcome::Admitted { evicted: victims }
    }

    /// The (sampled) coldest cached user and its window frequency at `now`,
    /// the `min_{p∈C_u} f_p` term of the paper's scheduling rule. `None` if
    /// the region is empty.
    pub fn min_cached_freq(&mut self, now: f64) -> Option<(UserId, f64)> {
        self.sampled_min_freq(now, &HashSet::new())
    }

    /// Invalidates every entry resident on cache worker
    /// `worker_index` of `num_workers`, under the pool's static partition
    /// (user id modulo worker count). This is what the meta service does
    /// when a cache worker drops out of the membership view: its entries
    /// are unreachable and must not count as cached.
    ///
    /// Returns `(entries, bytes)` invalidated. Deterministic regardless of
    /// hash-map iteration order.
    ///
    /// # Panics
    ///
    /// Panics if `worker_index >= num_workers` or `num_workers == 0`.
    pub fn invalidate_partition(
        &mut self,
        worker_index: usize,
        num_workers: usize,
    ) -> (u64, Bytes) {
        assert!(num_workers > 0, "pool needs at least one worker");
        assert!(worker_index < num_workers, "worker index out of range");
        let mut victims: Vec<UserId> = self
            .entries
            .keys()
            .filter(|u| u.as_u64() % num_workers as u64 == worker_index as u64)
            .copied()
            .collect();
        victims.sort_unstable();
        let mut bytes = Bytes::ZERO;
        for &user in &victims {
            bytes += self.entries[&user];
            self.remove_entry(user);
        }
        (victims.len() as u64, bytes)
    }

    /// Removes a user's entry explicitly; returns whether it was present.
    pub fn remove(&mut self, user: UserId) -> bool {
        if self.entries.contains_key(&user) {
            self.remove_entry(user);
            true
        } else {
            false
        }
    }

    fn insert_entry(&mut self, user: UserId, bytes: Bytes) {
        let bytes = self.round_to_pages(bytes);
        self.entries.insert(user, bytes);
        self.used += bytes;
        self.lru.touch(user);
        self.key_idx.insert(user, self.keys.len());
        self.keys.push(user);
    }

    /// Rounds an entry footprint up to whole pages (PagedAttention layout).
    fn round_to_pages(&self, bytes: Bytes) -> Bytes {
        Bytes::new(bytes.as_u64().div_ceil(self.cfg.page_bytes) * self.cfg.page_bytes)
    }

    fn remove_entry(&mut self, user: UserId) {
        if let Some(bytes) = self.entries.remove(&user) {
            self.used -= bytes;
        }
        self.lru.remove(&user);
        if let Some(idx) = self.key_idx.remove(&user) {
            let last = self.keys.len() - 1;
            self.keys.swap(idx, last);
            self.keys.pop();
            if idx < self.keys.len() {
                self.key_idx.insert(self.keys[idx], idx);
            }
        }
    }

    /// Deterministic sampled minimum over cached users' frequencies,
    /// skipping `exclude`. Scans everything when the region is small.
    fn sampled_min_freq(&mut self, now: f64, exclude: &HashSet<UserId>) -> Option<(UserId, f64)> {
        let live = self.keys.len().saturating_sub(exclude.len());
        if live == 0 {
            return None;
        }
        let mut best: Option<(UserId, f64)> = None;
        let consider = |cache: &UserCache, u: UserId, best: &mut Option<(UserId, f64)>| {
            let f = cache.freq.per_window(&u, now);
            if best.is_none_or(|(_, bf)| f < bf) {
                *best = Some((u, f));
            }
        };
        if live <= self.cfg.min_freq_sample * 2 {
            let keys: Vec<UserId> = self
                .keys
                .iter()
                .copied()
                .filter(|u| !exclude.contains(u))
                .collect();
            for u in keys {
                consider(self, u, &mut best);
            }
            return best;
        }
        let mut found = 0usize;
        let mut attempts = 0usize;
        while found < self.cfg.min_freq_sample && attempts < self.cfg.min_freq_sample * 8 {
            attempts += 1;
            // xorshift64* — deterministic, dependency-free.
            self.rng_state ^= self.rng_state >> 12;
            self.rng_state ^= self.rng_state << 25;
            self.rng_state ^= self.rng_state >> 27;
            let r = self.rng_state.wrapping_mul(0x2545_f491_4f6c_dd1d);
            let u = self.keys[(r % self.keys.len() as u64) as usize];
            if exclude.contains(&u) {
                continue;
            }
            found += 1;
            consider(self, u, &mut best);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uid(i: u64) -> UserId {
        UserId::new(i)
    }

    fn cache(capacity: u64) -> UserCache {
        UserCache::new(UserCacheConfig {
            capacity: Bytes::new(capacity),
            freq_window_secs: 60.0,
            min_freq_sample: 4,
            page_bytes: 10,
        })
    }

    #[test]
    fn lru_admission_evicts_in_recency_order() {
        let mut c = cache(100);
        assert_ne!(c.admit_lru(uid(1), Bytes::new(40)), AdmitOutcome::Rejected);
        assert_ne!(c.admit_lru(uid(2), Bytes::new(40)), AdmitOutcome::Rejected);
        // Touch user 1 so user 2 becomes LRU.
        c.lookup(uid(1), 0.0);
        match c.admit_lru(uid(3), Bytes::new(40)) {
            AdmitOutcome::Admitted { evicted } => assert_eq!(evicted, vec![uid(2)]),
            other => panic!("unexpected {other:?}"),
        }
        assert!(c.contains(uid(1)) && c.contains(uid(3)) && !c.contains(uid(2)));
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut c = cache(100);
        assert_eq!(c.admit_lru(uid(1), Bytes::new(200)), AdmitOutcome::Rejected);
        assert_eq!(
            c.admit_if_hotter(uid(1), Bytes::new(200), 0.0),
            AdmitOutcome::Rejected
        );
    }

    #[test]
    fn hotter_user_displaces_colder() {
        let mut c = cache(100);
        // Cold user: one access long ago.
        c.record_access(uid(1), 0.0);
        assert_ne!(
            c.admit_if_hotter(uid(1), Bytes::new(100), 0.0),
            AdmitOutcome::Rejected
        );
        // Hot user: many recent accesses.
        for t in 0..20 {
            c.record_access(uid(2), 500.0 + t as f64);
        }
        let out = c.admit_if_hotter(uid(2), Bytes::new(100), 520.0);
        match out {
            AdmitOutcome::Admitted { evicted } => assert_eq!(evicted, vec![uid(1)]),
            other => panic!("expected admission, got {other:?}"),
        }
    }

    #[test]
    fn colder_user_is_rejected() {
        let mut c = cache(100);
        for t in 0..20 {
            c.record_access(uid(1), t as f64);
        }
        assert_ne!(
            c.admit_if_hotter(uid(1), Bytes::new(100), 20.0),
            AdmitOutcome::Rejected
        );
        // Newcomer with a single access is colder than the resident.
        c.record_access(uid(2), 21.0);
        assert_eq!(
            c.admit_if_hotter(uid(2), Bytes::new(50), 21.0),
            AdmitOutcome::Rejected
        );
        assert!(c.contains(uid(1)), "resident survives");
    }

    #[test]
    fn free_space_admits_without_eviction() {
        let mut c = cache(100);
        c.record_access(uid(1), 0.0);
        match c.admit_if_hotter(uid(1), Bytes::new(30), 0.0) {
            AdmitOutcome::Admitted { evicted } => assert!(evicted.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn readmission_is_idempotent() {
        let mut c = cache(100);
        assert_ne!(c.admit_lru(uid(1), Bytes::new(50)), AdmitOutcome::Rejected);
        assert_ne!(c.admit_lru(uid(1), Bytes::new(50)), AdmitOutcome::Rejected);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used(), Bytes::new(50));
    }

    #[test]
    fn remove_releases_space() {
        let mut c = cache(100);
        c.admit_lru(uid(1), Bytes::new(60));
        assert!(c.remove(uid(1)));
        assert!(!c.remove(uid(1)));
        assert_eq!(c.used(), Bytes::ZERO);
        assert!(c.is_empty());
    }

    #[test]
    fn min_cached_freq_finds_coldest() {
        let mut c = cache(300);
        for t in 0..30 {
            c.record_access(uid(1), t as f64);
        }
        c.record_access(uid(2), 15.0);
        c.admit_lru(uid(1), Bytes::new(100));
        c.admit_lru(uid(2), Bytes::new(100));
        let (coldest, f) = c.min_cached_freq(30.0).unwrap();
        assert_eq!(coldest, uid(2));
        assert!(f < c.freq_per_window(uid(1), 30.0));
        // Empty cache has no minimum.
        assert!(cache(10).min_cached_freq(0.0).is_none());
    }

    #[test]
    fn entries_round_up_to_pages() {
        let mut c = UserCache::new(UserCacheConfig {
            capacity: Bytes::new(100),
            freq_window_secs: 60.0,
            min_freq_sample: 4,
            page_bytes: 16,
        });
        // 17 bytes occupies two 16-byte pages.
        assert_ne!(c.admit_lru(uid(1), Bytes::new(17)), AdmitOutcome::Rejected);
        assert_eq!(c.used(), Bytes::new(32));
        assert_eq!(c.lookup(uid(1), 0.0), Some(Bytes::new(32)));
        // A 97-byte entry needs 7 pages = 112 > 100: rejected outright.
        assert_eq!(c.admit_lru(uid(2), Bytes::new(97)), AdmitOutcome::Rejected);
    }

    #[test]
    fn accounting_is_exact_under_churn() {
        let mut c = cache(500);
        for i in 0..100u64 {
            let t = i as f64;
            c.record_access(uid(i % 13), t);
            c.admit_lru(uid(i % 13), Bytes::new(10 + (i % 7) * 20));
            if i % 3 == 0 {
                c.remove(uid(i % 5));
            }
            let sum: Bytes = c.entries.values().copied().fold(Bytes::ZERO, |a, b| a + b);
            assert_eq!(sum, c.used());
            assert!(c.used() <= c.capacity());
            assert_eq!(c.keys.len(), c.entries.len());
        }
    }

    #[test]
    fn partition_invalidation_drops_exactly_the_dead_workers_users() {
        let mut c = cache(10_000);
        for i in 0..20u64 {
            assert_ne!(c.admit_lru(uid(i), Bytes::new(10)), AdmitOutcome::Rejected);
        }
        // Worker 1 of 4 dies: users 1, 5, 9, 13, 17 are unreachable.
        let (entries, bytes) = c.invalidate_partition(1, 4);
        assert_eq!(entries, 5);
        assert_eq!(bytes, Bytes::new(50));
        for i in 0..20u64 {
            assert_eq!(c.contains(uid(i)), i % 4 != 1, "user {i}");
        }
        // Idempotent: nothing left on that partition.
        assert_eq!(c.invalidate_partition(1, 4), (0, Bytes::ZERO));
        assert_eq!(c.used(), Bytes::new(150));
    }
}
