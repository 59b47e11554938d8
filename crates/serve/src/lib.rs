//! The multi-threaded serving runtime.
//!
//! `bat-sim` proves the design in virtual time; this crate runs the same
//! components on real OS threads — and, in `--processes` mode, real OS
//! processes — mirroring Figure 3's deployment:
//!
//! * the **scheduler**, on the caller's thread, replays the trace
//!   open-loop, drives the shared [`bat_sim::RequestPlanner`] (policy
//!   decision + cache transactions) and
//!   dispatches jobs to the least-loaded worker as [`bat_net`] frames over
//!   a pluggable [`bat_net::Transport`] (in-process channels, Unix domain
//!   sockets, or TCP — see [`TransportKind`]);
//! * one **inference worker per node** — a thread or a child process —
//!   runs [`run_net_worker`]: it batches opportunistically under the
//!   max-batched-tokens limit and "executes" each batch by booking the
//!   cost model's duration (scaled by [`ServeOptions::time_scale`] so tests
//!   run in milliseconds) on a [`Pacer`], which keeps the worker on the
//!   wall clock without a sleep per batch;
//! * the **collector** thread aggregates completions into the same
//!   [`bat_sim::RunStats`] the simulator emits.
//!
//! Because both stacks share the planner, their cache behavior (hit rates,
//! prefix decisions, computed tokens) is identical by construction — and
//! identical across transports, which the integration suite pins with
//! [`bat_sim::RunStats::digest`]. The runtime additionally validates the
//! concurrency architecture: credit backpressure, exactly-once re-dispatch
//! across worker kills, shared meta-service locking, orderly shutdown.

pub mod net_worker;
pub mod pacer;
pub mod runtime;

pub use net_worker::{maybe_child_worker, run_net_worker, CHILD_INDEX_ENV, CHILD_SOCKET_ENV};
pub use pacer::Pacer;
pub use runtime::{ServeOptions, ServeRuntime, TransportKind};
