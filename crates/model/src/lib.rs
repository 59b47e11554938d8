//! The Generative Recommender model and Bipartite Attention.
//!
//! This crate implements the paper's §4 from scratch:
//!
//! * a complete decoder-only transformer (RMSNorm → GQA attention with RoPE →
//!   SwiGLU FFN, residual connections, tied output head) in portable `f32`,
//!   whose layer can carry HSTU's pointwise unit instead ([`hstu`]): one
//!   forward runs both;
//! * **prompt layouts** for *User-as-prefix* (UP) and *Item-as-prefix* (IP)
//!   orderings, including the paper's co-designed attention masks (no
//!   cross-item attention) and position-ID assignment (every item restarts
//!   from the same base position);
//! * **KV-cache computation and reuse**: any block of the prompt can be
//!   pre-computed into a [`kv::KvSegment`] and spliced into later forward
//!   passes, exactly like a serving engine reusing a prefix cache;
//! * a **planted-preference semantic model** ([`semantic`]) used to reproduce
//!   the paper's Table 3 (Recall/MRR/NDCG of UP vs IP);
//! * a CacheBlend-style **position-independent caching (PIC)** repair pass
//!   ([`pic`]) that selectively recomputes high-drift item tokens (§4.2,
//!   "Sensitivity to Base Models").
//!
//! The structural claims of Bipartite Attention are verified as *exact*
//! numerical properties in this crate's tests: an item's KV entry computed
//! standalone is identical to the one computed inside a full IP prompt, and a
//! prefix-cached forward pass reproduces full recomputation bit-for-bit
//! (within f32 tolerance).

pub mod config;
pub mod hstu;
pub mod kv;
mod mask;
pub mod pic;
pub mod profile;
pub mod prompt;
pub mod semantic;
pub mod transformer;
pub mod weights;

pub use config::GrModelConfig;
pub use hstu::HstuModel;
pub use kv::{KvSegment, LayerKv};
pub use profile::Stage;
pub use prompt::{MaskScheme, PromptLayout, SegTag, TokenSeq};
pub use transformer::{ForwardOutput, ForwardWorkspace, GrModel};
pub use weights::Weights;
