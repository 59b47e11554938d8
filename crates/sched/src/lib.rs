//! The hotness-aware prompt scheduler (§5.3).
//!
//! Bipartite Attention turns prefix selection into a per-request decision:
//! *User-as-prefix* saves more tokens for long-profile users whose cache
//! entry will be reused soon; *Item-as-prefix* reuses the shared item pool
//! and is the safe default for cold or short-profile users. This crate
//! implements the paper's decision policies ([`policy`]), the slot-based
//! batch scheduler every serving run executes on ([`slots`]) with §5.1's
//! per-request batching as one of its points ([`batch`]), and the SLO-aware
//! admission/brownout control plane ([`overload`]).

pub mod batch;
pub mod overload;
pub mod policy;
pub mod slots;

pub use overload::{AdmitDecision, OverloadConfig, OverloadController};
pub use policy::{
    CacheAgnosticPolicy, HotnessAwarePolicy, OraclePolicy, PromptPolicy, StaticPolicy,
};
pub use slots::{
    time_key, BatchCompletion, BatchScheduler, BatchShed, BatchingConfig, RoundRecord,
};
