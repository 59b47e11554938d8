//! The disaggregated KV cache pool (§5.1), accounting layer.
//!
//! At cluster scale the simulator tracks KV caches by *byte and token
//! accounting* rather than by materialized tensors (the real floats live in
//! `bat-model` for the accuracy experiments). This crate provides the
//! building blocks the paper's cache architecture needs:
//!
//! * [`pool::PagedPool`] — fixed-size-page allocation compatible with
//!   PagedAttention-style management (§5.1, "KV Cache Worker");
//! * [`lru::LruIndex`] — exact LRU ordering, the replacement policy of the
//!   UP/IP baselines (Mooncake-style, §3.3.2);
//! * [`hotness::FreqEstimator`] — the sliding-window user access-frequency
//!   estimator with asynchronous decay (§5.3);
//! * [`user_cache::UserCache`] — the user-prefix cache region with both
//!   plain-LRU and hotness-aware admission primitives;
//! * [`meta::CacheKey`] — user/item-granularity entry identifiers, the
//!   keys `bat-meta`'s replicated index and hotness table track;
//! * [`segments::SegmentStore`] — materialized packed [`bat_model::KvSegment`]s
//!   charged to a [`pool::PagedPool`] at their packed-layout resident size,
//!   so cached prefixes are stored in exactly the form forwards consume.
//!
//! The quantized cold tier behind these hot regions (§3.3.2's deferred
//! storage tier) is `bat-tiers`' `TieredKvPool`, which builds on
//! [`lru::LruIndex`] and [`meta::CacheKey`].

pub mod hotness;
pub mod lru;
pub mod meta;
pub mod pool;
pub mod segments;
pub mod user_cache;

pub use hotness::FreqEstimator;
pub use lru::LruIndex;
pub use meta::CacheKey;
pub use pool::PagedPool;
pub use segments::SegmentStore;
pub use user_cache::{AdmitOutcome, UserCache, UserCacheConfig};
