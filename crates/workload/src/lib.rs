//! Workload generation: datasets, popularity laws and request traces.
//!
//! The paper evaluates on three Amazon datasets and a synthetic *Industry*
//! workload whose key distribution shapes it reports directly (Figure 2):
//! long-tail user token counts (2b), highly skewed user access frequencies
//! (2c, >55 % of users at most once per hour), and Zipf item popularity
//! (2d, ~90 % of accesses on the top ~10 % of items). This crate generates
//! workloads with those shapes, **deterministically and in O(1) memory per
//! entity** — per-user/per-item attributes are pure hash functions of the
//! identifier, so the Industry-100M corpus of Figure 10 needs no
//! materialized state.
//!
//! # Cost
//!
//! A Books request (100 candidates from ≈ 118 popularity draws) takes
//! ≈ 3–5 µs on a shared 2-vCPU AVX-512 Xeon at 2.0 GHz (`batctl bench`'s
//! `trace_gen_books` row), where the straightforward formulas take ≈ 8–11
//! µs. Nearly all of it is the draws, and a draw costs one `exp` (the
//! logarithmic law's inverse CDF; a `powf` for other exponents) and one
//! table probe. Each step of the straightforward formulas is replaced by
//! one with the same bits, so every trace is theirs (`tests/trace_pins.rs`):
//!
//! * a law's total mass, a `ln`, is computed once per law by the same
//!   expression;
//! * `floor`, a libm call at the x86-64 baseline, is the cast `x as u64`:
//!   truncation is the floor of a non-negative value, and both send every
//!   negative value and NaN to 0;
//! * `round` is rebuilt half away from zero from that truncation, since
//!   `x − trunc(x)` is exact ([`hashing::round_to_u32`]);
//! * a uniform's division by 2⁵³ is a multiplication by 2⁻⁵³, exact because
//!   the divisor is a power of two;
//! * a request's de-duplication `HashSet` is a memo the trace keeps: per item
//!   id of the hot head, the last request that drew it and its token count;
//! * session requests past the horizon are drawn, to keep the random stream,
//!   but neither stored nor sorted.
//!
//! # Example
//!
//! ```
//! use bat_types::DatasetConfig;
//! use bat_workload::Workload;
//!
//! let w = Workload::new(DatasetConfig::games(), 7);
//! let tokens = w.user_token_count(bat_types::UserId::new(42));
//! assert!(tokens >= Workload::MIN_USER_TOKENS);
//! ```

pub mod hashing;
pub mod persist;
pub mod trace;
pub mod workload;
pub mod zipf;

pub use persist::{load_trace, save_trace};
pub use trace::{SessionParams, TraceGenerator};
pub use workload::Workload;
pub use zipf::ZipfLaw;
