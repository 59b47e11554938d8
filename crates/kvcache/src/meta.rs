//! Cache entry identity and the meta-service surface (§5.1).
//!
//! [`CacheKey`] names one logical KV entry; [`MetaIndex`] is the cache
//! meta service's behavioural contract — the index + hotness table that
//! tracks where every user/item entry lives. [`LocalMetaIndex`] is the
//! in-process single-node implementation; `bat-meta` provides a replicated
//! one behind the same trait, which is what lets the planner swap a
//! consensus-backed meta group in without touching cache logic.

use bat_types::{BatError, ItemId, UserId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// Identifier of one logical KV entry in the disaggregated pool.
///
/// The paper stores KV entries at *user/item granularity*: "all prefix
/// tokens of a given user or item form one logical entry" (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CacheKey {
    /// A user-prefix entry.
    User(UserId),
    /// An item-prefix entry.
    Item(ItemId),
}

impl CacheKey {
    /// Whether this is a user-prefix entry.
    pub fn is_user(self) -> bool {
        matches!(self, CacheKey::User(_))
    }

    /// The user id, for user-prefix entries.
    pub fn as_user(self) -> Option<UserId> {
        match self {
            CacheKey::User(u) => Some(u),
            CacheKey::Item(_) => None,
        }
    }
}

impl fmt::Display for CacheKey {
    /// Renders `kv:u{id}` / `kv:i{id}` with the kind prefix emitted here,
    /// not inherited from the id type's own `Display` — so user and item
    /// entries can never collide textually even if the id formats change,
    /// and the string round-trips through [`CacheKey::from_str`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheKey::User(u) => write!(f, "kv:u{}", u.as_u64()),
            CacheKey::Item(i) => write!(f, "kv:i{}", i.as_u64()),
        }
    }
}

impl FromStr for CacheKey {
    type Err = BatError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let invalid = || BatError::InvalidRequest(format!("malformed cache key {s:?}"));
        let rest = s.strip_prefix("kv:").ok_or_else(invalid)?;
        let (kind, digits) = rest.split_at(rest.len().min(1));
        let id: u64 = digits.parse().map_err(|_| invalid())?;
        match kind {
            "u" => Ok(CacheKey::User(UserId::new(id))),
            "i" => Ok(CacheKey::Item(ItemId::new(id))),
            _ => Err(invalid()),
        }
    }
}

impl From<UserId> for CacheKey {
    fn from(u: UserId) -> Self {
        CacheKey::User(u)
    }
}

impl From<ItemId> for CacheKey {
    fn from(i: ItemId) -> Self {
        CacheKey::Item(i)
    }
}

/// Millisecond-quantized trace time, the hotness table's timestamp unit.
/// Quantizing keeps the table free of float state so replicated and local
/// indices agree bit-for-bit.
pub fn meta_time_ms(now_secs: f64) -> u64 {
    (now_secs * 1000.0).round() as u64
}

/// The cache meta service's behavioural contract: the authoritative index
/// of which KV entries exist (with their sizes) plus the hotness table and
/// the membership epoch of the view the index was built against.
///
/// Two implementations exist: [`LocalMetaIndex`] (single in-process node:
/// a replica's state, and the tests' oracle) and `bat-meta`'s replicated
/// client, which commits every mutation through a leader-based command log.
/// The planner drives the client through this trait, and the two agree on
/// every command sequence.
pub trait MetaIndex {
    /// Records that `key` now exists in the pool with `bytes` resident.
    fn register(&mut self, key: CacheKey, bytes: u64, now: f64);

    /// Removes `key` from the index (capacity eviction or invalidation).
    fn evict(&mut self, key: CacheKey, now: f64);

    /// Bumps `key`'s hotness: one more access at `now`.
    fn touch(&mut self, key: CacheKey, now: f64);

    /// Drops every *user* entry owned by the crashed worker
    /// (`user % num_workers == worker_index`), returning how many entries
    /// were invalidated. Item entries are HRCS-replicated and survive.
    fn drop_user_partition(&mut self, worker_index: usize, num_workers: usize, now: f64) -> u64;

    /// Notes that a worker rejoined (membership epoch advances; the index
    /// itself is unchanged — the worker rejoins empty).
    fn note_worker_restart(&mut self, worker_index: usize, now: f64);

    /// Whether `key` is currently indexed.
    fn contains(&self, key: CacheKey) -> bool;

    /// Number of indexed entries.
    fn num_entries(&self) -> usize;

    /// Total bytes the indexed entries hold.
    fn bytes_indexed(&self) -> u64;

    /// Membership epoch of the view this index reflects: bumps once per
    /// worker crash or restart routed through the index.
    fn view_epoch(&self) -> u64;

    /// Access count recorded for `key` (0 if never touched).
    fn hotness_count(&self, key: CacheKey) -> u64;

    /// Order-independent digest over index + hotness contents, for
    /// replica-agreement and fault-vs-fault-free identity checks.
    fn digest(&self) -> u64;
}

/// FNV-1a digest over the canonical (sorted) index + hotness contents.
/// Shared by every [`MetaIndex`] implementation so digests are comparable
/// across local and replicated backends.
pub fn meta_digest<'a>(
    index: impl Iterator<Item = (&'a CacheKey, &'a u64)>,
    hotness: impl Iterator<Item = (&'a CacheKey, &'a (u64, u64))>,
    view_epoch: u64,
) -> u64 {
    let mut h = bat_types::fnv::Fnv64::new();
    let mut mix = |v: u64| h.write_u64(v);
    let key_word = |k: &CacheKey| match *k {
        CacheKey::User(u) => u.as_u64() << 1,
        CacheKey::Item(i) => (i.as_u64() << 1) | 1,
    };
    for (k, bytes) in index {
        mix(key_word(k));
        mix(*bytes);
    }
    mix(u64::MAX); // section separator
    for (k, (count, last_ms)) in hotness {
        mix(key_word(k));
        mix(*count);
        mix(*last_ms);
    }
    mix(view_epoch);
    h.finish()
}

/// Single-node, in-process meta index: the behaviour every replicated
/// implementation must reproduce. Deterministic by construction (BTreeMap
/// ordering, millisecond-quantized timestamps). `bat-meta`'s replicas hold
/// one of these as their state machine, so its reads are inherent: a
/// replica's state answers them without [`MetaIndex`] in scope.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LocalMetaIndex {
    index: BTreeMap<CacheKey, u64>,
    hotness: BTreeMap<CacheKey, (u64, u64)>,
    view_epoch: u64,
}

/// Whether `key` is a user entry the static partition
/// (`user % num_workers`) places on `worker_index`.
fn in_partition(key: &CacheKey, worker_index: usize, num_workers: usize) -> bool {
    key.as_user()
        .is_some_and(|u| u.as_u64() % num_workers as u64 == worker_index as u64)
}

impl LocalMetaIndex {
    /// An empty index at view epoch 0.
    pub fn new() -> Self {
        LocalMetaIndex::default()
    }

    /// One more access to `key` at millisecond trace time `at_ms` (see
    /// [`meta_time_ms`]).
    pub fn touch_ms(&mut self, key: CacheKey, at_ms: u64) {
        let slot = self.hotness.entry(key).or_insert((0, 0));
        slot.0 += 1;
        slot.1 = at_ms;
    }

    /// How many entries [`MetaIndex::drop_user_partition`] would drop for
    /// `worker_index` of `num_workers`, without dropping them.
    pub fn partition_entries(&self, worker_index: usize, num_workers: usize) -> u64 {
        self.index
            .keys()
            .filter(|k| in_partition(k, worker_index, num_workers))
            .count() as u64
    }

    /// Whether `key` is indexed.
    pub fn contains(&self, key: CacheKey) -> bool {
        self.index.contains_key(&key)
    }

    /// Number of indexed entries.
    pub fn num_entries(&self) -> usize {
        self.index.len()
    }

    /// Total bytes the indexed entries hold.
    pub fn bytes_indexed(&self) -> u64 {
        self.index.values().sum()
    }

    /// Membership epoch of the view this index reflects.
    pub fn view_epoch(&self) -> u64 {
        self.view_epoch
    }

    /// Access count recorded for `key` (0 if never touched).
    pub fn hotness_count(&self, key: CacheKey) -> u64 {
        self.hotness.get(&key).map_or(0, |(c, _)| *c)
    }

    /// [`meta_digest`] over the whole index.
    pub fn digest(&self) -> u64 {
        meta_digest(self.index.iter(), self.hotness.iter(), self.view_epoch)
    }
}

impl MetaIndex for LocalMetaIndex {
    fn register(&mut self, key: CacheKey, bytes: u64, _now: f64) {
        self.index.insert(key, bytes);
    }

    fn evict(&mut self, key: CacheKey, _now: f64) {
        self.index.remove(&key);
    }

    fn touch(&mut self, key: CacheKey, now: f64) {
        self.touch_ms(key, meta_time_ms(now));
    }

    fn drop_user_partition(&mut self, worker_index: usize, num_workers: usize, _now: f64) -> u64 {
        let dropped = self.partition_entries(worker_index, num_workers);
        self.index
            .retain(|k, _| !in_partition(k, worker_index, num_workers));
        self.view_epoch += 1;
        dropped
    }

    fn note_worker_restart(&mut self, _worker_index: usize, _now: f64) {
        self.view_epoch += 1;
    }

    fn contains(&self, key: CacheKey) -> bool {
        LocalMetaIndex::contains(self, key)
    }

    fn num_entries(&self) -> usize {
        LocalMetaIndex::num_entries(self)
    }

    fn bytes_indexed(&self) -> u64 {
        LocalMetaIndex::bytes_indexed(self)
    }

    fn view_epoch(&self) -> u64 {
        LocalMetaIndex::view_epoch(self)
    }

    fn hotness_count(&self, key: CacheKey) -> u64 {
        LocalMetaIndex::hotness_count(self, key)
    }

    fn digest(&self) -> u64 {
        LocalMetaIndex::digest(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_kinds() {
        let u: CacheKey = UserId::new(1).into();
        let i: CacheKey = ItemId::new(1).into();
        assert!(u.is_user());
        assert!(!i.is_user());
        assert_ne!(u, i, "user and item entries never collide");
        assert_eq!(u.as_user(), Some(UserId::new(1)));
        assert_eq!(i.as_user(), None);
    }

    #[test]
    fn display_includes_kind_prefix() {
        assert_eq!(CacheKey::User(UserId::new(2)).to_string(), "kv:u2");
        assert_eq!(CacheKey::Item(ItemId::new(2)).to_string(), "kv:i2");
    }

    #[test]
    fn display_round_trips_through_from_str() {
        for key in [
            CacheKey::User(UserId::new(0)),
            CacheKey::User(UserId::new(712)),
            CacheKey::Item(ItemId::new(712)),
            CacheKey::Item(ItemId::new(u64::MAX)),
        ] {
            let parsed: CacheKey = key.to_string().parse().unwrap();
            assert_eq!(parsed, key);
        }
    }

    #[test]
    fn from_str_rejects_malformed_keys() {
        for bad in [
            "", "kv:", "kv:x3", "kv:u", "kv:u-1", "kv:u3x", "u3", "kv:u 3",
        ] {
            assert!(bad.parse::<CacheKey>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn local_index_tracks_entries_hotness_and_epoch() {
        let mut m = LocalMetaIndex::new();
        let u2: CacheKey = UserId::new(2).into();
        let u5: CacheKey = UserId::new(5).into();
        let item: CacheKey = ItemId::new(2).into();

        m.register(u2, 100, 0.5);
        m.register(u5, 200, 0.6);
        m.register(item, 50, 0.7);
        m.touch(u2, 1.0);
        m.touch(u2, 2.0);
        assert_eq!(m.num_entries(), 3);
        assert_eq!(m.bytes_indexed(), 350);
        assert!(m.contains(u2));
        assert_eq!(m.hotness_count(u2), 2);
        assert_eq!(m.hotness_count(u5), 0);

        // Worker 2 of 3 owns users ≡ 2 (mod 3): u2 and u5. Item entries
        // survive the partition drop.
        let dropped = m.drop_user_partition(2, 3, 3.0);
        assert_eq!(dropped, 2);
        assert!(!m.contains(u2) && !m.contains(u5));
        assert!(m.contains(item));
        assert_eq!(m.view_epoch(), 1);

        m.note_worker_restart(2, 4.0);
        assert_eq!(m.view_epoch(), 2);
    }

    #[test]
    fn digest_reflects_contents() {
        let mut a = LocalMetaIndex::new();
        let mut b = LocalMetaIndex::new();
        assert_eq!(a.digest(), b.digest());
        a.register(UserId::new(1).into(), 10, 0.0);
        assert_ne!(a.digest(), b.digest());
        b.register(UserId::new(1).into(), 10, 9.0); // register time is not state
        assert_eq!(a.digest(), b.digest());
        a.touch(UserId::new(1).into(), 1.0);
        b.touch(UserId::new(1).into(), 1.0004); // same millisecond
        assert_eq!(a.digest(), b.digest());
        b.touch(UserId::new(1).into(), 2.0);
        assert_ne!(a.digest(), b.digest());
    }
}
