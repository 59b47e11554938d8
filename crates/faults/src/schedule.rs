//! Fault schedules: validated, time-ordered fault event lists.

use crate::view::ClusterView;
use bat_types::{BatError, WorkerId};
use rand::prelude::*;
use serde::{Deserialize, Serialize};

/// What goes wrong (or recovers) at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A cache worker dies: its cache contents are lost and the meta
    /// service must invalidate every entry it owned.
    WorkerCrash(WorkerId),
    /// A previously crashed worker rejoins empty, with a fresh incarnation
    /// number; re-warming is the recovery path's job.
    WorkerRestart(WorkerId),
    /// The cache-pool interconnect degrades: KV transfer times multiply by
    /// `factor` (≥ 1) until a [`FaultKind::LinkRestore`].
    LinkDegrade {
        /// Multiplier applied to network transfer time.
        factor: f64,
    },
    /// Link bandwidth returns to nominal.
    LinkRestore,
    /// The cache meta service stops answering lookups for `duration_secs`;
    /// requests planned inside the window cannot locate cached prefixes and
    /// fall back to recompute.
    MetaStall {
        /// Length of the unresponsive window, seconds.
        duration_secs: f64,
    },
    /// Replica `node` of the replicated cache-meta group dies, losing its
    /// log and state; if it was the leader, the survivors must elect a new
    /// one before the next meta command can commit.
    MetaCrash(usize),
    /// Meta replica `node` rejoins empty and catches up from the leader via
    /// snapshot + log replay.
    MetaRestart(usize),
    /// The link between workers `a` and `b` is cut (symmetric): `a` can no
    /// longer reach `b` while every other pair stays connected. A meta
    /// client whose leader is hosted across a cut link treats the leader as
    /// unreachable and forces an election.
    CutLink {
        /// One endpoint of the severed link.
        a: WorkerId,
        /// The other endpoint.
        b: WorkerId,
    },
    /// The previously cut link between `a` and `b` heals.
    HealLink {
        /// One endpoint of the healed link.
        a: WorkerId,
        /// The other endpoint.
        b: WorkerId,
    },
    /// The (symmetric) link between workers `a` and `b` slows: KV transfers
    /// across it multiply by `factor` (> 1), but the pair stays reachable —
    /// this is the straggler-link case that hedged pulls exist for. A
    /// `factor` of exactly 1 restores the link to nominal speed.
    SlowLink {
        /// One endpoint of the slowed link.
        a: WorkerId,
        /// The other endpoint.
        b: WorkerId,
        /// Transfer-time multiplier (≥ 1; 1 restores nominal speed).
        factor: f64,
    },
    /// Planned scale-in: `worker` stops accepting new work, migrates its
    /// queued and seated-but-unstarted chunks to live workers, and leaves
    /// the membership. Unlike a crash, nothing in flight is lost — but the
    /// process does exit, so its cache contents go with it.
    WorkerDrain(WorkerId),
    /// Planned scale-out: a fresh worker takes over slot `worker` (which
    /// must currently be out of the membership — drained or crashed) and is
    /// incrementally re-planned into the slot map with a new incarnation.
    WorkerJoin(WorkerId),
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault fires, in trace time (seconds).
    pub at_secs: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// Default size of the replicated meta group when a schedule doesn't say.
pub const DEFAULT_META_NODES: usize = 3;

/// A validated fault schedule for a cluster of `num_workers` cache workers
/// and a replicated meta group of `meta_nodes` replicas.
///
/// A schedule is built only through validation, and it is valid exactly
/// when its events are finite-timed and non-negative and, sorted by time
/// (ties keep insertion order), each one applies to a fresh
/// [`ClusterView`] of its sizes: [`ClusterView::apply`] is the one place
/// that decides which transitions are legal (no crash of a down worker, at
/// least one worker and a meta quorum alive at every instant, …).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    num_workers: usize,
    meta_nodes: usize,
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Builds a schedule from events, sorting them by time and validating
    /// the invariants above.
    ///
    /// # Errors
    ///
    /// Returns [`BatError::InvalidConfig`] describing the first violated
    /// invariant.
    pub fn new(num_workers: usize, events: Vec<FaultEvent>) -> Result<Self, BatError> {
        FaultSchedule::with_meta_nodes(num_workers, DEFAULT_META_NODES, events)
    }

    /// Like [`FaultSchedule::new`] but for a meta group of `meta_nodes`
    /// replicas instead of the default [`DEFAULT_META_NODES`].
    ///
    /// # Errors
    ///
    /// Returns [`BatError::InvalidConfig`] describing the first violated
    /// invariant.
    pub fn with_meta_nodes(
        num_workers: usize,
        meta_nodes: usize,
        mut events: Vec<FaultEvent>,
    ) -> Result<Self, BatError> {
        let invalid = |msg: String| Err(BatError::InvalidConfig(msg));
        if num_workers == 0 {
            return invalid("fault schedule needs at least one worker".into());
        }
        if meta_nodes == 0 {
            return invalid("fault schedule needs at least one meta replica".into());
        }
        if let Some(e) = events
            .iter()
            .find(|e| !e.at_secs.is_finite() || e.at_secs < 0.0)
        {
            return invalid(format!("fault at t={} must be finite and >= 0", e.at_secs));
        }
        events.sort_by(|a, b| {
            a.at_secs
                .partial_cmp(&b.at_secs)
                .expect("fault times are finite")
        });
        let mut view = ClusterView::with_meta(num_workers, meta_nodes);
        for e in &events {
            view.apply(e)?;
        }
        Ok(FaultSchedule {
            num_workers,
            meta_nodes,
            events,
        })
    }

    /// An empty schedule (no faults ever fire).
    pub fn none(num_workers: usize) -> Self {
        FaultSchedule {
            num_workers: num_workers.max(1),
            meta_nodes: DEFAULT_META_NODES,
            events: Vec::new(),
        }
    }

    /// The canonical kill-one-worker experiment: `worker` crashes at
    /// `crash_at` and restarts at `restart_at`.
    ///
    /// # Errors
    ///
    /// Returns [`BatError::InvalidConfig`] for out-of-range workers or
    /// `restart_at <= crash_at`.
    pub fn single_crash(
        num_workers: usize,
        worker: WorkerId,
        crash_at: f64,
        restart_at: f64,
    ) -> Result<Self, BatError> {
        if restart_at <= crash_at {
            return Err(BatError::InvalidConfig(format!(
                "restart at t={restart_at} must come after crash at t={crash_at}"
            )));
        }
        FaultSchedule::new(
            num_workers,
            vec![
                FaultEvent {
                    at_secs: crash_at,
                    kind: FaultKind::WorkerCrash(worker),
                },
                FaultEvent {
                    at_secs: restart_at,
                    kind: FaultKind::WorkerRestart(worker),
                },
            ],
        )
    }

    /// The canonical meta-failover experiment: meta replica `node` (pass
    /// the initial leader to exercise election) crashes at `crash_at` and
    /// rejoins at `restart_at` to catch up via snapshot + log replay.
    ///
    /// # Errors
    ///
    /// Returns [`BatError::InvalidConfig`] for out-of-range replicas,
    /// `restart_at <= crash_at`, or a group too small to keep quorum.
    pub fn single_meta_crash(
        num_workers: usize,
        meta_nodes: usize,
        node: usize,
        crash_at: f64,
        restart_at: f64,
    ) -> Result<Self, BatError> {
        if restart_at <= crash_at {
            return Err(BatError::InvalidConfig(format!(
                "meta restart at t={restart_at} must come after crash at t={crash_at}"
            )));
        }
        FaultSchedule::with_meta_nodes(
            num_workers,
            meta_nodes,
            vec![
                FaultEvent {
                    at_secs: crash_at,
                    kind: FaultKind::MetaCrash(node),
                },
                FaultEvent {
                    at_secs: restart_at,
                    kind: FaultKind::MetaRestart(node),
                },
            ],
        )
    }

    /// Generates a seeded random schedule over `[0, horizon_secs)`:
    /// `crashes` crash/restart pairs (each down for 5–20% of the horizon,
    /// never overlapping enough to kill the whole cluster) plus one link
    /// degradation and one meta stall. Deterministic per seed and valid by
    /// construction.
    pub fn random(seed: u64, num_workers: usize, horizon_secs: f64, crashes: usize) -> Self {
        assert!(num_workers >= 2, "random schedules need >= 2 workers");
        assert!(horizon_secs > 0.0, "horizon must be positive");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut down_until = vec![0.0f64; num_workers];
        for _ in 0..crashes {
            let w = rng.gen_range(0..num_workers);
            let crash_at = rng.gen_range(0.1 * horizon_secs..0.7 * horizon_secs);
            let outage = rng.gen_range(0.05 * horizon_secs..0.2 * horizon_secs);
            let restart_at = (crash_at + outage).min(horizon_secs * 0.95);
            // Keep it simple and safe: only crash workers that are up for
            // the whole window, and never take down more than half the
            // cluster at once.
            let overlapping = down_until.iter().filter(|&&until| until > crash_at).count();
            if down_until[w] > 0.0 || overlapping >= num_workers / 2 {
                continue;
            }
            down_until[w] = restart_at;
            events.push(FaultEvent {
                at_secs: crash_at,
                kind: FaultKind::WorkerCrash(WorkerId::new(w as u64)),
            });
            events.push(FaultEvent {
                at_secs: restart_at,
                kind: FaultKind::WorkerRestart(WorkerId::new(w as u64)),
            });
        }
        let degrade_at = rng.gen_range(0.2 * horizon_secs..0.5 * horizon_secs);
        events.push(FaultEvent {
            at_secs: degrade_at,
            kind: FaultKind::LinkDegrade {
                factor: rng.gen_range(1.5..4.0),
            },
        });
        events.push(FaultEvent {
            at_secs: degrade_at + rng.gen_range(0.05 * horizon_secs..0.15 * horizon_secs),
            kind: FaultKind::LinkRestore,
        });
        events.push(FaultEvent {
            at_secs: rng.gen_range(0.2 * horizon_secs..0.8 * horizon_secs),
            kind: FaultKind::MetaStall {
                duration_secs: rng.gen_range(0.01 * horizon_secs..0.05 * horizon_secs),
            },
        });
        FaultSchedule::new(num_workers, events).expect("random schedules are valid by construction")
    }

    /// The canonical elastic-membership experiment: `worker` drains at
    /// `drain_at` (its queued work migrates to the survivors) and a fresh
    /// process joins the vacated slot at `join_at`.
    ///
    /// # Errors
    ///
    /// Returns [`BatError::InvalidConfig`] for out-of-range workers or
    /// `join_at <= drain_at`.
    pub fn drain_join(
        num_workers: usize,
        worker: WorkerId,
        drain_at: f64,
        join_at: f64,
    ) -> Result<Self, BatError> {
        if join_at <= drain_at {
            return Err(BatError::InvalidConfig(format!(
                "join at t={join_at} must come after drain at t={drain_at}"
            )));
        }
        FaultSchedule::new(
            num_workers,
            vec![
                FaultEvent {
                    at_secs: drain_at,
                    kind: FaultKind::WorkerDrain(worker),
                },
                FaultEvent {
                    at_secs: join_at,
                    kind: FaultKind::WorkerJoin(worker),
                },
            ],
        )
    }

    /// Generates a seeded random *membership* schedule over
    /// `[0, horizon_secs)`: `churn` departure/return pairs, each randomly a
    /// crash/restart or a drain/join, never emptying the cluster.
    /// Deterministic per seed and valid by construction — this is the
    /// schedule shape the elastic conservation proptests and the CI chaos
    /// matrix replay.
    pub fn random_membership(
        seed: u64,
        num_workers: usize,
        horizon_secs: f64,
        churn: usize,
    ) -> Self {
        assert!(num_workers >= 2, "membership schedules need >= 2 workers");
        assert!(horizon_secs > 0.0, "horizon must be positive");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut down_until = vec![0.0f64; num_workers];
        for _ in 0..churn {
            let w = rng.gen_range(0..num_workers);
            let leave_at = rng.gen_range(0.1 * horizon_secs..0.7 * horizon_secs);
            let outage = rng.gen_range(0.05 * horizon_secs..0.2 * horizon_secs);
            let return_at = (leave_at + outage).min(horizon_secs * 0.95);
            let overlapping = down_until.iter().filter(|&&until| until > leave_at).count();
            if down_until[w] > 0.0 || overlapping >= num_workers / 2 {
                continue;
            }
            down_until[w] = return_at;
            let planned = rng.gen_bool(0.5);
            let id = WorkerId::new(w as u64);
            events.push(FaultEvent {
                at_secs: leave_at,
                kind: if planned {
                    FaultKind::WorkerDrain(id)
                } else {
                    FaultKind::WorkerCrash(id)
                },
            });
            events.push(FaultEvent {
                at_secs: return_at,
                kind: if planned {
                    FaultKind::WorkerJoin(id)
                } else {
                    FaultKind::WorkerRestart(id)
                },
            });
        }
        FaultSchedule::new(num_workers, events)
            .expect("random membership schedules are valid by construction")
    }

    /// The events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Cluster size the schedule was validated against.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Replicated meta-group size the schedule was validated against.
    pub fn meta_nodes(&self) -> usize {
        self.meta_nodes
    }

    /// True when the schedule contains meta-replica or link-partition
    /// events (the kinds that exercise the replicated meta service).
    pub fn has_meta_events(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e.kind,
                FaultKind::MetaCrash(_)
                    | FaultKind::MetaRestart(_)
                    | FaultKind::CutLink { .. }
                    | FaultKind::HealLink { .. }
            )
        })
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Time of the first scheduled crash, if any — the pre-fault steady
    /// state ends here.
    pub fn first_crash_at(&self) -> Option<f64> {
        self.events
            .iter()
            .find(|e| matches!(e.kind, FaultKind::WorkerCrash(_)))
            .map(|e| e.at_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(i: u64) -> WorkerId {
        WorkerId::new(i)
    }

    fn ev(at_secs: f64, kind: FaultKind) -> FaultEvent {
        FaultEvent { at_secs, kind }
    }

    #[test]
    fn events_sort_by_time() {
        let s = FaultSchedule::new(
            4,
            vec![
                ev(30.0, FaultKind::WorkerRestart(w(1))),
                ev(10.0, FaultKind::WorkerCrash(w(1))),
            ],
        )
        .unwrap();
        assert_eq!(s.events()[0].at_secs, 10.0);
        assert_eq!(s.first_crash_at(), Some(10.0));
    }

    #[test]
    fn rejects_out_of_range_worker() {
        let err = FaultSchedule::new(2, vec![ev(1.0, FaultKind::WorkerCrash(w(5)))]).unwrap_err();
        assert!(matches!(err, BatError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn rejects_double_crash_and_spurious_restart() {
        let double = FaultSchedule::new(
            3,
            vec![
                ev(1.0, FaultKind::WorkerCrash(w(0))),
                ev(2.0, FaultKind::WorkerCrash(w(0))),
            ],
        );
        assert!(double.is_err());
        let spurious = FaultSchedule::new(3, vec![ev(1.0, FaultKind::WorkerRestart(w(0)))]);
        assert!(spurious.is_err());
    }

    #[test]
    fn rejects_full_cluster_loss() {
        let err = FaultSchedule::new(
            2,
            vec![
                ev(1.0, FaultKind::WorkerCrash(w(0))),
                ev(2.0, FaultKind::WorkerCrash(w(1))),
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("at least one"), "{err}");
    }

    #[test]
    fn rejects_bad_factors_and_durations() {
        assert!(
            FaultSchedule::new(2, vec![ev(1.0, FaultKind::LinkDegrade { factor: 0.5 })]).is_err()
        );
        assert!(FaultSchedule::new(
            2,
            vec![ev(1.0, FaultKind::MetaStall { duration_secs: 0.0 })],
        )
        .is_err());
        assert!(FaultSchedule::new(2, vec![ev(f64::NAN, FaultKind::LinkRestore)]).is_err());
    }

    #[test]
    fn single_crash_orders_and_validates() {
        let s = FaultSchedule::single_crash(4, w(2), 60.0, 120.0).unwrap();
        assert_eq!(s.events().len(), 2);
        assert!(FaultSchedule::single_crash(4, w(2), 60.0, 60.0).is_err());
    }

    #[test]
    fn random_schedules_are_deterministic_and_valid() {
        for seed in 0..50 {
            let a = FaultSchedule::random(seed, 4, 600.0, 3);
            let b = FaultSchedule::random(seed, 4, 600.0, 3);
            assert_eq!(a, b, "seed {seed}");
            // Re-validating succeeds: the generator only emits valid plans.
            FaultSchedule::new(4, a.events().to_vec()).unwrap();
        }
        assert_ne!(
            FaultSchedule::random(1, 4, 600.0, 3),
            FaultSchedule::random(2, 4, 600.0, 3)
        );
    }

    #[test]
    fn meta_crash_keeps_quorum() {
        let ok = FaultSchedule::single_meta_crash(4, 3, 0, 10.0, 30.0).unwrap();
        assert_eq!(ok.meta_nodes(), 3);
        assert!(ok.has_meta_events());
        assert_eq!(ok.events()[0].kind, FaultKind::MetaCrash(0));
        assert_eq!(ok.events()[0].at_secs, 10.0);
        assert_eq!(
            ok.first_crash_at(),
            None,
            "meta crashes are not worker crashes"
        );

        // Killing a second replica of a 3-group before the first rejoins
        // drops below quorum (2 of 3).
        let err = FaultSchedule::with_meta_nodes(
            4,
            3,
            vec![
                ev(1.0, FaultKind::MetaCrash(0)),
                ev(2.0, FaultKind::MetaCrash(1)),
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("quorum"), "{err}");
    }

    #[test]
    fn rejects_double_meta_crash_and_out_of_range_replica() {
        assert!(FaultSchedule::with_meta_nodes(
            4,
            3,
            vec![
                ev(1.0, FaultKind::MetaCrash(1)),
                ev(2.0, FaultKind::MetaCrash(1)),
            ],
        )
        .is_err());
        assert!(
            FaultSchedule::with_meta_nodes(4, 3, vec![ev(1.0, FaultKind::MetaRestart(0))]).is_err()
        );
        assert!(
            FaultSchedule::with_meta_nodes(4, 3, vec![ev(1.0, FaultKind::MetaCrash(7))]).is_err()
        );
    }

    #[test]
    fn drain_join_validates_membership() {
        let s = FaultSchedule::drain_join(4, w(1), 10.0, 30.0).unwrap();
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.events()[0].kind, FaultKind::WorkerDrain(w(1)));
        assert_eq!(s.events()[1].kind, FaultKind::WorkerJoin(w(1)));
        assert_eq!(s.first_crash_at(), None, "drains are planned, not crashes");
        assert!(FaultSchedule::drain_join(4, w(1), 30.0, 30.0).is_err());

        // Draining a worker that is already out is invalid.
        assert!(FaultSchedule::new(
            3,
            vec![
                ev(1.0, FaultKind::WorkerCrash(w(0))),
                ev(2.0, FaultKind::WorkerDrain(w(0))),
            ],
        )
        .is_err());
        // Draining the last live worker leaves nowhere to migrate.
        let err = FaultSchedule::new(
            2,
            vec![
                ev(1.0, FaultKind::WorkerCrash(w(0))),
                ev(2.0, FaultKind::WorkerDrain(w(1))),
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("nowhere to migrate"), "{err}");
        // A join may re-occupy a *crashed* slot (replacement hardware), but
        // never a live one.
        assert!(FaultSchedule::new(
            3,
            vec![
                ev(1.0, FaultKind::WorkerCrash(w(2))),
                ev(2.0, FaultKind::WorkerJoin(w(2))),
            ],
        )
        .is_ok());
        assert!(FaultSchedule::new(3, vec![ev(1.0, FaultKind::WorkerJoin(w(2)))]).is_err());
    }

    #[test]
    fn random_membership_schedules_are_deterministic_and_valid() {
        let mut saw_planned = false;
        for seed in 0..50 {
            let a = FaultSchedule::random_membership(seed, 4, 600.0, 3);
            let b = FaultSchedule::random_membership(seed, 4, 600.0, 3);
            assert_eq!(a, b, "seed {seed}");
            FaultSchedule::new(4, a.events().to_vec()).unwrap();
            saw_planned |= a
                .events()
                .iter()
                .any(|e| matches!(e.kind, FaultKind::WorkerDrain(_) | FaultKind::WorkerJoin(_)));
        }
        assert!(saw_planned, "50 seeds must produce at least one drain/join");
    }

    #[test]
    fn link_cuts_validate_pairing() {
        let ok = FaultSchedule::new(
            4,
            vec![
                ev(1.0, FaultKind::CutLink { a: w(0), b: w(2) }),
                ev(5.0, FaultKind::HealLink { a: w(2), b: w(0) }),
            ],
        );
        // Heal may name the endpoints in either order: links are symmetric.
        assert!(ok.is_ok());
        assert!(ok.unwrap().has_meta_events());

        // Self-link, double cut, and spurious heal are rejected.
        assert!(
            FaultSchedule::new(4, vec![ev(1.0, FaultKind::CutLink { a: w(1), b: w(1) })]).is_err()
        );
        assert!(FaultSchedule::new(
            4,
            vec![
                ev(1.0, FaultKind::CutLink { a: w(0), b: w(1) }),
                ev(2.0, FaultKind::CutLink { a: w(1), b: w(0) }),
            ],
        )
        .is_err());
        assert!(
            FaultSchedule::new(4, vec![ev(1.0, FaultKind::HealLink { a: w(0), b: w(1) })]).is_err()
        );
    }
}
