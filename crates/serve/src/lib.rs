//! The multi-threaded serving runtime.
//!
//! `bat-sim` proves the design in virtual time; this crate runs the same
//! components on real OS threads — and, in `--processes` mode, real OS
//! processes — mirroring Figure 3's deployment:
//!
//! * the **scheduler**, on the caller's thread, replays the trace
//!   open-loop through the simulator's own [`bat_sim::SlotDriver`]
//!   (admission, the shared [`bat_sim::RequestPlanner`]'s policy decision
//!   and cache transactions, the batch machine) and puts every round it
//!   forms on the wire to that round's worker as a [`bat_net`] frame over a
//!   pluggable [`bat_net::Transport`] (in-process channels, Unix domain
//!   sockets, or TCP — see [`TransportKind`]);
//! * one **inference worker per node** — a thread or a child process —
//!   runs [`run_net_worker`]: it "executes" each round by booking its
//!   priced duration (scaled by [`ServeOptions::time_scale`] so tests run
//!   in milliseconds) on a [`Pacer`], which keeps the worker on the wall
//!   clock without a sleep per round;
//! * one **reader** per worker link receives the worker's acks and retires
//!   the rounds, returning dispatch credit.
//!
//! Because both stacks run one driver on nominal time, their
//! [`bat_sim::RunStats`] are identical by construction — and identical
//! across transports, which the integration suite pins with
//! [`bat_sim::RunStats::digest`] and whole-value equality. The runtime
//! additionally validates the concurrency architecture: credit
//! backpressure, exactly-once retirement across worker kills, shared
//! meta-service locking, orderly shutdown.

pub mod net_worker;
pub mod pacer;
pub mod runtime;

/// The most messages the data plane holds for one link before it writes
/// them, in both directions: a worker writes its queued replies, and the
/// scheduler its held rounds, once one link has this many. Past this a
/// bigger frame saves no further system calls; it only delays the peer's
/// work or the scheduler's credit.
pub(crate) const MAX_COALESCED: usize = 64;

pub use net_worker::{maybe_child_worker, run_net_worker, CHILD_INDEX_ENV, CHILD_SOCKET_ENV};
pub use pacer::Pacer;
pub use runtime::{ServeOptions, ServeRuntime, TransportKind};
