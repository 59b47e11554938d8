//! Exact least-recently-used ordering.
//!
//! The prefix-caching baselines (UP, IP) manage host-memory KV caches with
//! LRU replacement, following Mooncake (§3.3.2). This index tracks recency
//! with a monotonic stamp per key; both `touch` and `pop_lru` are
//! `O(log n)`.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// An LRU recency index over keys of type `K`.
///
/// ```
/// use bat_kvcache::LruIndex;
///
/// let mut lru = LruIndex::new();
/// lru.touch("a");
/// lru.touch("b");
/// lru.touch("a"); // "a" is now most recent
/// assert_eq!(lru.pop_lru(), Some("b"));
/// ```
#[derive(Debug, Clone)]
pub struct LruIndex<K> {
    stamps: HashMap<K, u64>,
    order: BTreeMap<u64, K>,
    next: u64,
}

impl<K: Hash + Eq + Clone> LruIndex<K> {
    /// Creates an empty index.
    pub fn new() -> Self {
        LruIndex {
            stamps: HashMap::new(),
            order: BTreeMap::new(),
            next: 0,
        }
    }

    /// Marks `key` as most-recently used, inserting it if absent.
    pub fn touch(&mut self, key: K) {
        if let Some(old) = self.stamps.insert(key.clone(), self.next) {
            self.order.remove(&old);
        }
        self.order.insert(self.next, key);
        self.next += 1;
    }

    /// Removes and returns the least-recently-used key.
    pub fn pop_lru(&mut self) -> Option<K> {
        let (&stamp, _) = self.order.iter().next()?;
        let key = self.order.remove(&stamp)?;
        self.stamps.remove(&key);
        Some(key)
    }

    /// Removes a specific key; returns whether it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.stamps.remove(key) {
            Some(stamp) => {
                self.order.remove(&stamp);
                true
            }
            None => false,
        }
    }

    /// Whether `key` is tracked.
    pub fn contains(&self, key: &K) -> bool {
        self.stamps.contains_key(key)
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }
}

impl<K: Hash + Eq + Clone> Default for LruIndex<K> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eviction_order_is_recency() {
        let mut lru = LruIndex::new();
        for k in [1, 2, 3] {
            lru.touch(k);
        }
        lru.touch(1);
        assert_eq!(lru.pop_lru(), Some(2));
        assert_eq!(lru.pop_lru(), Some(3));
        assert_eq!(lru.pop_lru(), Some(1));
        assert_eq!(lru.pop_lru(), None);
    }

    #[test]
    fn remove_specific_key() {
        let mut lru = LruIndex::new();
        lru.touch("x");
        lru.touch("y");
        assert!(lru.remove(&"x"));
        assert!(!lru.remove(&"x"));
        assert_eq!(lru.pop_lru(), Some("y"));
    }

    proptest! {
        /// Stamps and order maps never diverge; len is consistent.
        #[test]
        fn internal_consistency(ops in proptest::collection::vec((0u8..10, proptest::bool::ANY), 1..100)) {
            let mut lru = LruIndex::new();
            let mut reference = std::collections::HashSet::new();
            for (k, is_touch) in ops {
                if is_touch {
                    lru.touch(k);
                    reference.insert(k);
                } else {
                    let removed = lru.remove(&k);
                    prop_assert_eq!(removed, reference.remove(&k));
                }
                prop_assert_eq!(lru.len(), reference.len());
            }
            // Draining yields each key exactly once.
            let mut drained = Vec::new();
            while let Some(k) = lru.pop_lru() {
                drained.push(k);
            }
            drained.sort_unstable();
            let mut expect: Vec<u8> = reference.into_iter().collect();
            expect.sort_unstable();
            prop_assert_eq!(drained, expect);
        }
    }
}
