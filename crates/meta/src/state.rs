//! The deterministic state machine every meta replica hosts.

use crate::command::{MetaCommand, ViewChange};
use bat_kvcache::{LocalMetaIndex, MetaIndex};

/// The cache-meta index + hotness table + replicated view epoch: a replica's
/// state *is* the single-node [`LocalMetaIndex`], driven by committed
/// commands instead of direct calls. Replicated ≡ local therefore holds by
/// construction, and [`LocalMetaIndex::digest`] is how tests and the group
/// check that replicas agree.
pub type MetaState = LocalMetaIndex;

/// Applying a committed command to a replica's state.
pub(crate) trait Apply {
    /// Applies one committed command. Deterministic: no randomness, no
    /// wall-clock, no iteration over unordered containers.
    fn apply(&mut self, cmd: &MetaCommand);
}

impl Apply for MetaState {
    fn apply(&mut self, cmd: &MetaCommand) {
        // The single-node index ignores the trace time of every mutation
        // but a touch, whose time the command carries already quantized.
        match *cmd {
            MetaCommand::RegisterEntry { key, bytes } => self.register(key, bytes, 0.0),
            MetaCommand::Evict { key } => self.evict(key, 0.0),
            MetaCommand::HotnessDelta { key, at_ms } => self.touch_ms(key, at_ms),
            MetaCommand::View(ViewChange::WorkerCrashed {
                worker,
                num_workers,
            }) => {
                self.drop_user_partition(worker, num_workers, 0.0);
            }
            MetaCommand::View(ViewChange::WorkerRestarted { worker }) => {
                self.note_worker_restart(worker, 0.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_kvcache::CacheKey;
    use bat_types::{ItemId, UserId};

    fn u(i: u64) -> CacheKey {
        UserId::new(i).into()
    }

    #[test]
    fn apply_matches_local_meta_index() {
        // The replicated state machine and the single-node index must agree
        // command-for-command, digest included.
        let mut state = MetaState::new();
        let mut local = LocalMetaIndex::new();
        let script: Vec<MetaCommand> = vec![
            MetaCommand::RegisterEntry {
                key: u(1),
                bytes: 100,
            },
            MetaCommand::RegisterEntry {
                key: u(5),
                bytes: 200,
            },
            MetaCommand::RegisterEntry {
                key: ItemId::new(5).into(),
                bytes: 64,
            },
            MetaCommand::HotnessDelta {
                key: u(1),
                at_ms: 1000,
            },
            MetaCommand::HotnessDelta {
                key: u(1),
                at_ms: 2500,
            },
            MetaCommand::Evict { key: u(5) },
            MetaCommand::RegisterEntry {
                key: u(9),
                bytes: 300,
            },
            MetaCommand::View(ViewChange::WorkerCrashed {
                worker: 1,
                num_workers: 4,
            }),
            MetaCommand::View(ViewChange::WorkerRestarted { worker: 1 }),
        ];
        for cmd in &script {
            state.apply(cmd);
            match *cmd {
                MetaCommand::RegisterEntry { key, bytes } => local.register(key, bytes, 0.0),
                MetaCommand::Evict { key } => local.evict(key, 0.0),
                MetaCommand::HotnessDelta { key, at_ms } => local.touch(key, at_ms as f64 / 1000.0),
                MetaCommand::View(ViewChange::WorkerCrashed {
                    worker,
                    num_workers,
                }) => {
                    local.drop_user_partition(worker, num_workers, 0.0);
                }
                MetaCommand::View(ViewChange::WorkerRestarted { worker }) => {
                    local.note_worker_restart(worker, 0.0)
                }
            }
        }
        assert_eq!(state.num_entries(), local.num_entries());
        assert_eq!(state.bytes_indexed(), local.bytes_indexed());
        assert_eq!(state.view_epoch(), local.view_epoch());
        assert_eq!(state.digest(), local.digest());
        // Worker 1 of 4 owned users 1, 5, 9: u1/u9 were present and dropped.
        assert!(!state.contains(u(1)) && !state.contains(u(9)));
        assert!(state.contains(ItemId::new(5).into()), "items survive");
    }

    #[test]
    fn partition_entries_counts_without_mutating() {
        let mut s = MetaState::new();
        for i in 0..8 {
            s.apply(&MetaCommand::RegisterEntry {
                key: u(i),
                bytes: 1,
            });
        }
        assert_eq!(s.partition_entries(0, 4), 2); // users 0, 4
        assert_eq!(s.num_entries(), 8, "counting does not drop");
        assert_eq!(
            s.drop_user_partition(0, 4, 0.0),
            2,
            "dropping reuses the count"
        );
        assert_eq!(s.num_entries(), 6);
    }
}
