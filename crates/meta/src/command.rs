//! The replicated command log's vocabulary.

use bat_kvcache::CacheKey;
use serde::{Deserialize, Serialize};

/// A membership change routed through the replicated view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViewChange {
    /// A cache worker died: the replicated index must drop every user
    /// entry the static partition (`user % num_workers`) placed on it.
    WorkerCrashed {
        /// Index of the dead worker.
        worker: usize,
        /// Pool size the partition function is taken over.
        num_workers: usize,
    },
    /// A cache worker rejoined (empty); only the view epoch moves.
    WorkerRestarted {
        /// Index of the rejoined worker.
        worker: usize,
    },
}

/// One entry of the replicated command log. Commands are deterministic
/// state-machine transitions: applying the same committed sequence to any
/// replica yields bit-identical [`crate::MetaState`]s.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MetaCommand {
    /// `key` now exists in the pool with `bytes` resident.
    RegisterEntry {
        /// The entry's identity.
        key: CacheKey,
        /// Page-rounded resident size.
        bytes: u64,
    },
    /// `key` left the pool (capacity eviction or explicit removal).
    Evict {
        /// The entry's identity.
        key: CacheKey,
    },
    /// One more access to `key` at millisecond-quantized trace time
    /// `at_ms` (trace seconds × 1000, rounded).
    HotnessDelta {
        /// The entry's identity.
        key: CacheKey,
        /// Access time, milliseconds of trace time.
        at_ms: u64,
    },
    /// The cluster membership changed.
    View(ViewChange),
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_types::UserId;

    #[test]
    fn commands_serialize_round_trip() {
        let cmds = vec![
            MetaCommand::RegisterEntry {
                key: UserId::new(3).into(),
                bytes: 4096,
            },
            MetaCommand::Evict {
                key: UserId::new(3).into(),
            },
            MetaCommand::HotnessDelta {
                key: UserId::new(9).into(),
                at_ms: 1500,
            },
            MetaCommand::View(ViewChange::WorkerCrashed {
                worker: 1,
                num_workers: 4,
            }),
            MetaCommand::View(ViewChange::WorkerRestarted { worker: 1 }),
        ];
        let json = serde_json::to_string(&cmds).unwrap();
        let back: Vec<MetaCommand> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cmds);
    }
}
