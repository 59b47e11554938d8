//! The deterministic state machine every meta replica hosts.

use crate::command::{MetaCommand, ViewChange};
use bat_kvcache::CacheKey;
use std::collections::BTreeMap;

/// The cache-meta index + hotness table + replicated view epoch (§5.1):
/// which KV entries exist (with their sizes), how often and when each was
/// last accessed, and the membership epoch of the view the index was built
/// against. Committed [`MetaCommand`]s are its only mutations.
///
/// Deterministic by construction (BTreeMap ordering, millisecond-quantized
/// timestamps), so replicas fed the same commands are equal, and
/// [`MetaState::digest`] is how tests and the group check that they agree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetaState {
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

impl MetaState {
    /// An empty index at view epoch 0.
    pub fn new() -> Self {
        MetaState::default()
    }

    /// Applies one committed command. Deterministic: no randomness, no
    /// wall-clock, no iteration over unordered containers.
    pub fn apply(&mut self, cmd: &MetaCommand) {
        match *cmd {
            MetaCommand::RegisterEntry { key, bytes } => {
                self.index.insert(key, bytes);
            }
            MetaCommand::Evict { key } => {
                self.index.remove(&key);
            }
            MetaCommand::HotnessDelta { key, at_ms } => {
                let slot = self.hotness.entry(key).or_insert((0, 0));
                slot.0 += 1;
                slot.1 = at_ms;
            }
            MetaCommand::View(ViewChange::WorkerCrashed {
                worker,
                num_workers,
            }) => {
                self.index
                    .retain(|k, _| !in_partition(k, worker, num_workers));
                self.view_epoch += 1;
            }
            MetaCommand::View(ViewChange::WorkerRestarted { .. }) => self.view_epoch += 1,
        }
    }

    /// How many entries a [`ViewChange::WorkerCrashed`] for `worker_index`
    /// of `num_workers` would drop, without dropping them.
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

    /// Access count recorded for `key` (0 if never touched).
    pub fn hotness_count(&self, key: CacheKey) -> u64 {
        self.hotness.get(&key).map_or(0, |(c, _)| *c)
    }

    /// FNV-1a digest over the canonical (sorted) index + hotness contents
    /// and the view epoch, for replica-agreement and fault-vs-fault-free
    /// identity checks.
    pub fn digest(&self) -> u64 {
        let mut h = bat_types::fnv::Fnv64::new();
        let mut mix = |v: u64| h.write_u64(v);
        let key_word = |k: &CacheKey| match *k {
            CacheKey::User(u) => u.as_u64() << 1,
            CacheKey::Item(i) => (i.as_u64() << 1) | 1,
        };
        for (k, bytes) in &self.index {
            mix(key_word(k));
            mix(*bytes);
        }
        mix(u64::MAX); // section separator
        for (k, (count, last_ms)) in &self.hotness {
            mix(key_word(k));
            mix(*count);
            mix(*last_ms);
        }
        mix(self.view_epoch);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_types::{ItemId, UserId};

    fn u(i: u64) -> CacheKey {
        UserId::new(i).into()
    }

    fn register(key: CacheKey, bytes: u64) -> MetaCommand {
        MetaCommand::RegisterEntry { key, bytes }
    }

    fn touch(key: CacheKey, at_ms: u64) -> MetaCommand {
        MetaCommand::HotnessDelta { key, at_ms }
    }

    #[test]
    fn state_tracks_entries_hotness_and_epoch() {
        let mut m = MetaState::new();
        let item: CacheKey = ItemId::new(2).into();
        for cmd in [
            register(u(2), 100),
            register(u(5), 200),
            register(item, 50),
            touch(u(2), 1000),
            touch(u(2), 2000),
        ] {
            m.apply(&cmd);
        }
        assert_eq!(m.num_entries(), 3);
        assert!(m.contains(u(2)));
        assert_eq!(m.hotness_count(u(2)), 2);
        assert_eq!(m.hotness_count(u(5)), 0);

        // Worker 2 of 3 owns users ≡ 2 (mod 3): u2 and u5. Item entries
        // survive the partition drop.
        m.apply(&MetaCommand::View(ViewChange::WorkerCrashed {
            worker: 2,
            num_workers: 3,
        }));
        assert!(!m.contains(u(2)) && !m.contains(u(5)));
        assert!(m.contains(item));
        assert_eq!(m.view_epoch, 1);

        m.apply(&MetaCommand::View(ViewChange::WorkerRestarted {
            worker: 2,
        }));
        assert_eq!(m.view_epoch, 2);
    }

    #[test]
    fn digest_reflects_contents() {
        let mut a = MetaState::new();
        let mut b = MetaState::new();
        assert_eq!(a.digest(), b.digest());
        a.apply(&register(u(1), 10));
        assert_ne!(a.digest(), b.digest());
        b.apply(&register(u(1), 10));
        assert_eq!(a.digest(), b.digest());
        a.apply(&touch(u(1), 1000));
        b.apply(&touch(u(1), 1000));
        assert_eq!(a.digest(), b.digest());
        b.apply(&touch(u(1), 2000));
        assert_ne!(a.digest(), b.digest());
        a.apply(&touch(u(1), 2000));
        a.apply(&MetaCommand::View(ViewChange::WorkerRestarted {
            worker: 0,
        }));
        assert_ne!(a.digest(), b.digest(), "the view epoch is state");
    }

    #[test]
    fn partition_entries_counts_without_mutating() {
        let mut s = MetaState::new();
        for i in 0..8 {
            s.apply(&register(u(i), 1));
        }
        assert_eq!(s.partition_entries(0, 4), 2); // users 0, 4
        assert_eq!(s.num_entries(), 8, "counting does not drop");
        s.apply(&MetaCommand::View(ViewChange::WorkerCrashed {
            worker: 0,
            num_workers: 4,
        }));
        assert_eq!(s.num_entries(), 6, "the crash drops what was counted");
    }
}
