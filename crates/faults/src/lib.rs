//! `bat-faults`: deterministic fault injection for the BAT serving stack.
//!
//! The paper's disaggregated KV-cache pool (§5.1) and HRCS placement (§5.2)
//! assume cache workers never fail; at production scale they do. This crate
//! is the shared fault model for both execution paths:
//!
//! * [`FaultSchedule`] — a validated, time-ordered list of fault events
//!   (cache-worker crash and restart, planned drain and join, link
//!   degradation, cuts and slowdowns, meta-replica crashes, meta-service
//!   stalls). Schedules are plain data: the same schedule drives the
//!   discrete-event simulator (`bat-sim`) and the threaded runtime
//!   (`bat-serve`, which also severs and respawns real workers), through
//!   one slot driver on nominal time, which is what makes the two paths'
//!   accounting equal under failure. [`FaultSchedule::random`] and
//!   [`FaultSchedule::random_membership`] generate seeded schedules that
//!   are valid by construction.
//! * [`ClusterView`] — epoch-numbered membership: which cache workers are
//!   alive, each worker's incarnation (bumped on restart or join, so
//!   warmth earned before a crash never leaks across it), meta-replica
//!   liveness, the link matrix, the link-bandwidth factor and any active
//!   meta-service stall window.
//! * [`FaultCursor`] — a replay cursor that applies due events to a view in
//!   schedule order, independent of how the caller discovers time.
//! * [`FaultReport`] — the fault/recovery counters that land in `RunStats`.
//!
//! **One transition function.** [`ClusterView::apply`] alone decides which
//! transitions are legal, and refuses the others with a typed error that
//! names the event's time and target. A schedule is valid exactly when its
//! sorted events all apply to a fresh view of its sizes, which is how
//! [`FaultSchedule::new`] checks it; the planner replays it through its own
//! view, and the slot machine (`bat-sched`) follows the transitions the
//! view accepted. A draining worker is out of the view the instant the
//! drain lands, so a join or restart may land while its last round is
//! still in flight: the machine then lets that round retire and its
//! remaining work migrate, and seats the fresh worker at that boundary.

mod cursor;
mod report;
mod schedule;
mod view;

pub use cursor::FaultCursor;
pub use report::FaultReport;
pub use schedule::{FaultEvent, FaultKind, FaultSchedule, DEFAULT_META_NODES};
pub use view::{AppliedFault, ClusterView};
