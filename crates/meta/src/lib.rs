//! `bat-meta`: the replicated cache-meta service.
//!
//! BAT's disaggregated pool (§5.1) centralizes the cache-meta index and
//! hotness table in one meta service; a single meta node is a
//! single point of failure for the whole pool. This crate replaces it with
//! a deterministic replicated state machine:
//!
//! * [`MetaCommand`] — the replicated command log's vocabulary
//!   (RegisterEntry / Evict / HotnessDelta / ViewChange);
//! * [`MetaState`] — the index + hotness table + view epoch as a pure,
//!   deterministic state machine that committed commands drive
//!   ([`MetaState::apply`]);
//! * [`MetaGroup`] — leader/follower replication: seeded-tick leader
//!   election with randomized-by-seed timeouts, majority-commit append,
//!   epoch fencing against deposed leaders, and install or log-replay
//!   catch-up for rejoining replicas. Every replica holds a prefix of one
//!   committed log, so the group keeps one state, applies each commit to
//!   it once, and tracks a replica as its position in that log;
//! * [`MetaClient`] — the retry/redirect handle the shared request planner
//!   (and so both `bat-sim` and `bat-serve`) commits every index and
//!   hotness mutation through. A one-replica group is the single-node
//!   service.
//!
//! Determinism is the design constraint throughout: elections are driven by
//! logical ticks derived from nominal trace time and a seed, never from
//! wall-clock — so a leader crash mid-run changes *no* serving decision,
//! and final run statistics stay bitwise-identical to the fault-free run.

mod client;
mod command;
mod group;
mod state;

pub use client::{ClientStats, MetaClient};
pub use command::{MetaCommand, ViewChange};
pub use group::{
    GroupStats, MetaError, MetaGroup, Receipt, COMPACT_TRIGGER, ELECTION_MIN_TICKS,
    ELECTION_SPREAD_TICKS, HEARTBEAT_TICKS, TICK_SECS,
};
pub use state::MetaState;
