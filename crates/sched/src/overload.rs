//! SLO-aware admission control and brownout ladder.
//!
//! [`OverloadController`] is the control plane both execution paths share.
//! It keeps a *virtual backlog*: an analytic model of how many seconds of
//! work have been admitted but not yet drained, fed only by nominal arrival
//! times and planner cost estimates — never wall-clock readings — so
//! `bat-sim` and `bat-serve` make bit-identical admission decisions for the
//! same trace, schedule, and seed.
//!
//! The backlog drains at the cluster's live capacity (workers weighted by
//! any straggler slowdown). Pressure = estimated queueing delay divided by
//! the queue bound (`MAX_BACKLOG_SECS`, one second). Three decisions fall
//! out of it:
//!
//! 1. **Reject-on-arrival** — a request whose estimated wait already blows
//!    the queue bound ([`RejectReason::QueueFull`]) or whose wait + service
//!    cannot meet its deadline ([`RejectReason::DeadlineInfeasible`]) is
//!    refused before any cache state is touched.
//! 2. **Brownout ladder** — sustained pressure escalates through three
//!    rungs with hysteresis: (1) suspend background re-warm/refresh work,
//!    (2) degrade cold remote KV pulls to local recompute, (3) shed
//!    [`Priority::Low`](bat_types::Priority) requests at admission
//!    ([`RejectReason::BrownoutShed`]).
//! 3. **Goodput protection** — everything admitted is work the cluster can
//!    actually finish, so deadline-miss rates stay bounded under overload
//!    instead of collapsing the whole latency distribution.

use bat_types::{Priority, RejectReason};

/// Maximum tolerated estimated queueing delay, seconds. Arrivals whose
/// estimated wait exceeds this are rejected with [`RejectReason::QueueFull`].
const MAX_BACKLOG_SECS: f64 = 1.0;
/// Pressure (estimated wait / `MAX_BACKLOG_SECS`) at which each rung
/// engages: (1) background re-warm/refresh work is suspended; (2) cold
/// remote pulls degrade to local recompute, or to the local quantized cold
/// tier when one is configured; (3) `Priority::Low` requests shed.
const RUNG_PRESSURES: [f64; 3] = [0.5, 0.7, 0.85];
/// Hysteresis gap: a rung engaged at pressure `p` only releases below
/// `p - HYSTERESIS`, so the ladder doesn't flap at a threshold.
const HYSTERESIS: f64 = 0.15;
/// Base backoff delay for retried remote pulls, seconds.
pub const RETRY_BACKOFF_SECS: f64 = 0.002;
/// Seed for the jittered-backoff RNG (drawn in arrival order, so the jitter
/// stream is identical across execution paths).
pub const RETRY_SEED: u64 = 0x510_B0FF;

/// The overload control plane switched on. It has nothing to set: the
/// thresholds are the constants above, and the controller's state is all
/// that depends on the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadConfig;

/// What the controller decided for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDecision {
    /// Do the work.
    Admit,
    /// Refuse it, for the given reason.
    Reject(RejectReason),
}

impl AdmitDecision {
    /// The decision as a typed result, so every shed point surfaces the
    /// same [`bat_types::BatError::Rejected`] error.
    ///
    /// # Errors
    ///
    /// Returns the rejection as an error when the decision was `Reject`.
    pub fn into_result(self) -> Result<(), bat_types::BatError> {
        match self {
            AdmitDecision::Admit => Ok(()),
            AdmitDecision::Reject(reason) => Err(bat_types::BatError::Rejected { reason }),
        }
    }
}

/// Deterministic admission + brownout state machine (see module docs).
#[derive(Debug, Clone)]
pub struct OverloadController {
    /// Admitted-but-undrained work, in service-seconds.
    backlog_secs: f64,
    /// Nominal time of the last backlog update.
    last_update: f64,
    /// Live drain rate: service-seconds retired per second of trace time
    /// (live workers weighted by straggler slowdown).
    capacity: f64,
    /// Service-seconds actually queued or seated in the slot-based batch
    /// scheduler (0 when continuous batching is off). A floor under the
    /// analytic backlog: the drain model assumes work retires at capacity
    /// from the moment it is admitted, but slot occupancy is ground truth.
    slot_backlog_secs: f64,
    rung: u8,
}

impl OverloadController {
    /// A controller starting idle at `capacity` (see
    /// [`OverloadController::set_capacity`]).
    pub fn new(_: OverloadConfig, capacity: f64) -> Self {
        OverloadController {
            backlog_secs: 0.0,
            last_update: 0.0,
            capacity: capacity.max(f64::MIN_POSITIVE),
            slot_backlog_secs: 0.0,
            rung: 0,
        }
    }

    /// Updates the drain rate after a membership change: the sum over live
    /// workers of `1 / slowdown`, so one 5x straggler in a 4-node cluster
    /// contributes 0.2 workers of capacity, not 1.
    pub fn set_capacity(&mut self, capacity: f64) {
        self.capacity = capacity.max(f64::MIN_POSITIVE);
    }

    /// Drains the virtual backlog up to nominal time `now`. Time never runs
    /// backwards (out-of-order arrivals clamp to the last update).
    fn drain_to(&mut self, now: f64) {
        let dt = (now - self.last_update).max(0.0);
        self.backlog_secs = (self.backlog_secs - dt * self.capacity).max(0.0);
        self.last_update = self.last_update.max(now);
    }

    /// Feeds the slot scheduler's occupancy (queued + seated priced
    /// service, seconds) into the wait estimate. Both engines call this
    /// with the machine's nominal ledger immediately before each
    /// [`OverloadController::on_arrival`], so admission decisions stay
    /// bit-identical across execution paths. Calling it with `0.0` (or
    /// never) reproduces the pre-batching controller exactly.
    pub fn set_slot_backlog(&mut self, secs: f64) {
        self.slot_backlog_secs = secs.max(0.0);
    }

    /// Estimated queueing delay an arrival would see right now, seconds:
    /// the analytic backlog floored by observed slot occupancy.
    pub fn estimated_wait_secs(&self) -> f64 {
        self.backlog_secs.max(self.slot_backlog_secs) / self.capacity
    }

    /// Current pressure: estimated wait over the queue bound.
    pub fn pressure(&self) -> f64 {
        self.estimated_wait_secs() / MAX_BACKLOG_SECS
    }

    /// Re-evaluates the brownout rung under hysteresis at current pressure.
    fn update_rung(&mut self) {
        let p = self.pressure();
        let mut rung = 0u8;
        for (i, &threshold) in RUNG_PRESSURES.iter().enumerate() {
            let r = (i + 1) as u8;
            // A rung already held only releases below threshold - hysteresis.
            let bar = if self.rung >= r {
                threshold - HYSTERESIS
            } else {
                threshold
            };
            if p >= bar {
                rung = r;
            }
        }
        self.rung = rung;
    }

    /// Decides one arrival at nominal time `now` with estimated service
    /// cost `est_service_secs`. On `Admit` the cost is charged to the
    /// backlog; on `Reject` nothing is.
    pub fn on_arrival(
        &mut self,
        now: f64,
        est_service_secs: f64,
        deadline_secs: Option<f64>,
        priority: Priority,
    ) -> AdmitDecision {
        self.drain_to(now);
        self.update_rung();
        let wait = self.estimated_wait_secs();
        if wait > MAX_BACKLOG_SECS {
            return AdmitDecision::Reject(RejectReason::QueueFull);
        }
        if self.rung >= 3 && priority == Priority::Low {
            return AdmitDecision::Reject(RejectReason::BrownoutShed);
        }
        if let Some(d) = deadline_secs {
            // Admitting work that cannot finish in time only wastes the
            // capacity other requests need; refuse it up front. High
            // priority doesn't override physics.
            if wait + est_service_secs > d {
                return AdmitDecision::Reject(RejectReason::DeadlineInfeasible);
            }
        }
        self.backlog_secs += est_service_secs;
        self.update_rung();
        AdmitDecision::Admit
    }

    /// Current brownout rung (0 = nominal … 3 = shedding).
    pub fn rung(&self) -> u8 {
        self.rung
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl(capacity: f64) -> OverloadController {
        OverloadController::new(OverloadConfig, capacity)
    }

    #[test]
    fn idle_controller_admits_everything() {
        let mut c = ctl(1.0);
        for i in 0..10 {
            let d = c.on_arrival(i as f64, 0.01, Some(0.5), Priority::Normal);
            assert_eq!(d, AdmitDecision::Admit);
        }
        assert_eq!(c.rung(), 0);
    }

    #[test]
    fn saturation_rejects_queue_full() {
        let mut c = ctl(1.0);
        // Offered load far beyond capacity at one instant: the backlog
        // cannot drain, so admissions stop at the bound.
        let mut admitted = 0;
        let mut rejected = 0;
        for _ in 0..100 {
            match c.on_arrival(0.0, 0.05, None, Priority::Normal) {
                AdmitDecision::Admit => admitted += 1,
                AdmitDecision::Reject(RejectReason::QueueFull) => rejected += 1,
                other => panic!("unexpected decision {other:?}"),
            }
        }
        assert!(admitted > 0 && rejected > 0);
        // Bound holds: ~MAX_BACKLOG_SECS of work at 0.05s each, +1 for the
        // arrival that crossed the line.
        assert!(admitted <= 21, "admitted {admitted} past the bound");
    }

    #[test]
    fn infeasible_deadlines_are_rejected_before_queue_full() {
        let mut c = ctl(1.0);
        assert_eq!(
            c.on_arrival(0.0, 0.4, Some(0.3), Priority::High),
            AdmitDecision::Reject(RejectReason::DeadlineInfeasible)
        );
        // Feasible deadline admits fine.
        assert_eq!(
            c.on_arrival(0.0, 0.2, Some(0.3), Priority::High),
            AdmitDecision::Admit
        );
    }

    #[test]
    fn brownout_ladder_escalates_and_releases_with_hysteresis() {
        let mut c = ctl(1.0);
        // Push pressure to ~0.9: rung 3 engages.
        c.on_arrival(0.0, 0.9, None, Priority::Normal);
        c.on_arrival(0.0, 0.0, None, Priority::Normal);
        assert_eq!(c.rung(), 3);
        assert_eq!(
            c.on_arrival(0.0, 0.0, None, Priority::Low),
            AdmitDecision::Reject(RejectReason::BrownoutShed)
        );
        // Normal priority still admitted under rung 3.
        assert_eq!(
            c.on_arrival(0.0, 0.0, None, Priority::Normal),
            AdmitDecision::Admit
        );
        // Drain to pressure ~0.75: above rung3 - hysteresis (0.70) so rung 3
        // holds; then below it, the ladder steps down.
        c.on_arrival(0.15, 0.0, None, Priority::Normal);
        assert_eq!(c.rung(), 3, "hysteresis holds the rung");
        c.on_arrival(0.35, 0.0, None, Priority::Normal);
        assert!(c.rung() < 3, "draining releases the rung");
    }

    #[test]
    fn straggler_weighted_capacity_slows_drain() {
        let mut fast = ctl(4.0);
        let mut slow = ctl(3.2); // 4 workers, one at 5x: 3 + 1/5
        fast.on_arrival(0.0, 2.0, None, Priority::Normal);
        slow.on_arrival(0.0, 2.0, None, Priority::Normal);
        fast.on_arrival(0.4, 0.0, None, Priority::Normal);
        slow.on_arrival(0.4, 0.0, None, Priority::Normal);
        assert!(fast.estimated_wait_secs() < slow.estimated_wait_secs());
    }

    #[test]
    fn slot_backlog_floors_the_wait_estimate() {
        let mut c = ctl(1.0);
        // Analytic backlog drained long ago, but the slot machine still
        // holds 0.9s of seated work: the wait estimate must see it.
        c.set_slot_backlog(0.9);
        assert!((c.estimated_wait_secs() - 0.9).abs() < 1e-12);
        assert_eq!(
            c.on_arrival(10.0, 0.3, Some(1.0), Priority::Normal),
            AdmitDecision::Reject(RejectReason::DeadlineInfeasible)
        );
        // Clearing the slot signal restores the analytic-only estimate.
        c.set_slot_backlog(0.0);
        assert_eq!(
            c.on_arrival(10.0, 0.3, Some(1.0), Priority::Normal),
            AdmitDecision::Admit
        );
    }

    #[test]
    fn decisions_are_deterministic_in_inputs() {
        let run = || {
            let mut c = ctl(2.0);
            (0..200)
                .map(|i| {
                    let now = i as f64 * 0.01;
                    let pri = match i % 3 {
                        0 => Priority::Low,
                        1 => Priority::Normal,
                        _ => Priority::High,
                    };
                    c.on_arrival(now, 0.03, Some(0.2), pri)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
