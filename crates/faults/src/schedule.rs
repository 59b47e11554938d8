//! Fault schedules: validated, time-ordered fault event lists.

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

/// Default size of the replicated meta group when a schedule (or an old
/// serialized schedule that predates meta faults) doesn't say.
pub const DEFAULT_META_NODES: usize = 3;

/// A validated fault schedule for a cluster of `num_workers` cache workers
/// and a replicated meta group of `meta_nodes` replicas.
///
/// Invariants enforced at construction:
/// * events are finite-timed, non-negative, and sorted by time (ties keep
///   insertion order);
/// * every crash targets a live worker and every restart a crashed one;
/// * at least one cache worker is alive at every instant;
/// * every meta crash targets a live replica, every meta restart a crashed
///   one, and a majority of the meta group stays alive at every instant (a
///   quorum-less group cannot commit, so such schedules are unservable);
/// * link cuts target distinct in-range workers, cut only intact links, and
///   heals only cut ones;
/// * degrade factors are ≥ 1 and stall durations are > 0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    num_workers: usize,
    /// 0 only in schedules deserialized from before meta faults existed;
    /// [`FaultSchedule::meta_nodes`] normalizes that to the default.
    #[serde(default)]
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
        for e in &events {
            if !e.at_secs.is_finite() || e.at_secs < 0.0 {
                return invalid(format!("fault at t={} must be finite and >= 0", e.at_secs));
            }
            match e.kind {
                FaultKind::WorkerCrash(w)
                | FaultKind::WorkerRestart(w)
                | FaultKind::WorkerDrain(w)
                | FaultKind::WorkerJoin(w) => {
                    if w.index() >= num_workers {
                        return invalid(format!(
                            "fault targets {w} but the cluster has {num_workers} workers"
                        ));
                    }
                }
                FaultKind::MetaCrash(m) | FaultKind::MetaRestart(m) => {
                    if m >= meta_nodes {
                        return invalid(format!(
                            "meta fault targets replica {m} but the group has {meta_nodes} nodes"
                        ));
                    }
                }
                FaultKind::CutLink { a, b } | FaultKind::HealLink { a, b } => {
                    if a.index() >= num_workers || b.index() >= num_workers {
                        return invalid(format!(
                            "link fault {a}<->{b} exceeds the {num_workers}-worker cluster"
                        ));
                    }
                    if a == b {
                        return invalid(format!("link fault endpoints must differ, got {a}<->{b}"));
                    }
                }
                FaultKind::SlowLink { a, b, factor } => {
                    if a.index() >= num_workers || b.index() >= num_workers {
                        return invalid(format!(
                            "slow link {a}<->{b} exceeds the {num_workers}-worker cluster"
                        ));
                    }
                    if a == b {
                        return invalid(format!("slow link endpoints must differ, got {a}<->{b}"));
                    }
                    if !factor.is_finite() || factor < 1.0 {
                        return invalid(format!("slow link factor {factor} must be >= 1"));
                    }
                }
                FaultKind::LinkDegrade { factor } => {
                    if !factor.is_finite() || factor < 1.0 {
                        return invalid(format!("link degrade factor {factor} must be >= 1"));
                    }
                }
                FaultKind::MetaStall { duration_secs } => {
                    if !duration_secs.is_finite() || duration_secs <= 0.0 {
                        return invalid(format!("meta stall duration {duration_secs} must be > 0"));
                    }
                }
                FaultKind::LinkRestore => {}
            }
        }
        events.sort_by(|a, b| {
            a.at_secs
                .partial_cmp(&b.at_secs)
                .expect("fault times are finite")
        });
        // Replay membership to catch dead-worker crashes, double restarts,
        // full-cluster loss, meta-quorum loss, and double link cuts.
        let mut alive = vec![true; num_workers];
        let mut n_alive = num_workers;
        let mut meta_alive = vec![true; meta_nodes];
        let mut n_meta_alive = meta_nodes;
        let quorum = meta_nodes / 2 + 1;
        let mut cut = vec![false; num_workers * num_workers];
        for e in &events {
            match e.kind {
                FaultKind::WorkerCrash(w) => {
                    if !alive[w.index()] {
                        return invalid(format!(
                            "{w} crashes at t={} while already down",
                            e.at_secs
                        ));
                    }
                    alive[w.index()] = false;
                    n_alive -= 1;
                    if n_alive == 0 {
                        return invalid(format!(
                            "all workers down at t={}; at least one must stay alive",
                            e.at_secs
                        ));
                    }
                }
                FaultKind::WorkerDrain(w) => {
                    if !alive[w.index()] {
                        return invalid(format!(
                            "{w} drains at t={} while already out of the membership",
                            e.at_secs
                        ));
                    }
                    alive[w.index()] = false;
                    n_alive -= 1;
                    if n_alive == 0 {
                        return invalid(format!(
                            "draining the last worker at t={} leaves nowhere to migrate; \
                             at least one must stay alive",
                            e.at_secs
                        ));
                    }
                }
                FaultKind::WorkerRestart(w) => {
                    if alive[w.index()] {
                        return invalid(format!("{w} restarts at t={} while alive", e.at_secs));
                    }
                    alive[w.index()] = true;
                    n_alive += 1;
                }
                FaultKind::WorkerJoin(w) => {
                    if alive[w.index()] {
                        return invalid(format!(
                            "{w} joins at t={} while its slot is still occupied",
                            e.at_secs
                        ));
                    }
                    alive[w.index()] = true;
                    n_alive += 1;
                }
                FaultKind::MetaCrash(m) => {
                    if !meta_alive[m] {
                        return invalid(format!(
                            "meta replica {m} crashes at t={} while already down",
                            e.at_secs
                        ));
                    }
                    meta_alive[m] = false;
                    n_meta_alive -= 1;
                    if n_meta_alive < quorum {
                        return invalid(format!(
                            "meta quorum lost at t={}: {n_meta_alive}/{meta_nodes} alive but \
                             {quorum} needed to commit",
                            e.at_secs
                        ));
                    }
                }
                FaultKind::MetaRestart(m) => {
                    if meta_alive[m] {
                        return invalid(format!(
                            "meta replica {m} restarts at t={} while alive",
                            e.at_secs
                        ));
                    }
                    meta_alive[m] = true;
                    n_meta_alive += 1;
                }
                FaultKind::CutLink { a, b } => {
                    let idx = a.index() * num_workers + b.index();
                    if cut[idx] {
                        return invalid(format!(
                            "link {a}<->{b} cut at t={} while already cut",
                            e.at_secs
                        ));
                    }
                    cut[idx] = true;
                    cut[b.index() * num_workers + a.index()] = true;
                }
                FaultKind::HealLink { a, b } => {
                    let idx = a.index() * num_workers + b.index();
                    if !cut[idx] {
                        return invalid(format!(
                            "link {a}<->{b} heals at t={} while intact",
                            e.at_secs
                        ));
                    }
                    cut[idx] = false;
                    cut[b.index() * num_workers + a.index()] = false;
                }
                _ => {}
            }
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

    /// Replicated meta-group size the schedule was validated against
    /// (pre-meta serialized schedules read as [`DEFAULT_META_NODES`]).
    pub fn meta_nodes(&self) -> usize {
        if self.meta_nodes == 0 {
            DEFAULT_META_NODES
        } else {
            self.meta_nodes
        }
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

    #[test]
    fn events_sort_by_time() {
        let s = FaultSchedule::new(
            4,
            vec![
                FaultEvent {
                    at_secs: 30.0,
                    kind: FaultKind::WorkerRestart(w(1)),
                },
                FaultEvent {
                    at_secs: 10.0,
                    kind: FaultKind::WorkerCrash(w(1)),
                },
            ],
        )
        .unwrap();
        assert_eq!(s.events()[0].at_secs, 10.0);
        assert_eq!(s.first_crash_at(), Some(10.0));
    }

    #[test]
    fn rejects_out_of_range_worker() {
        let err = FaultSchedule::new(
            2,
            vec![FaultEvent {
                at_secs: 1.0,
                kind: FaultKind::WorkerCrash(w(5)),
            }],
        )
        .unwrap_err();
        assert!(matches!(err, BatError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn rejects_double_crash_and_spurious_restart() {
        let double = FaultSchedule::new(
            3,
            vec![
                FaultEvent {
                    at_secs: 1.0,
                    kind: FaultKind::WorkerCrash(w(0)),
                },
                FaultEvent {
                    at_secs: 2.0,
                    kind: FaultKind::WorkerCrash(w(0)),
                },
            ],
        );
        assert!(double.is_err());
        let spurious = FaultSchedule::new(
            3,
            vec![FaultEvent {
                at_secs: 1.0,
                kind: FaultKind::WorkerRestart(w(0)),
            }],
        );
        assert!(spurious.is_err());
    }

    #[test]
    fn rejects_full_cluster_loss() {
        let err = FaultSchedule::new(
            2,
            vec![
                FaultEvent {
                    at_secs: 1.0,
                    kind: FaultKind::WorkerCrash(w(0)),
                },
                FaultEvent {
                    at_secs: 2.0,
                    kind: FaultKind::WorkerCrash(w(1)),
                },
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("at least one"), "{err}");
    }

    #[test]
    fn rejects_bad_factors_and_durations() {
        assert!(FaultSchedule::new(
            2,
            vec![FaultEvent {
                at_secs: 1.0,
                kind: FaultKind::LinkDegrade { factor: 0.5 },
            }],
        )
        .is_err());
        assert!(FaultSchedule::new(
            2,
            vec![FaultEvent {
                at_secs: 1.0,
                kind: FaultKind::MetaStall { duration_secs: 0.0 },
            }],
        )
        .is_err());
        assert!(FaultSchedule::new(
            2,
            vec![FaultEvent {
                at_secs: f64::NAN,
                kind: FaultKind::LinkRestore,
            }],
        )
        .is_err());
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
    fn serializes_round_trip() {
        let s = FaultSchedule::single_crash(4, w(1), 5.0, 25.0).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn old_serialized_schedules_default_meta_nodes() {
        // JSON written before meta faults existed has no meta_nodes field.
        let back: FaultSchedule = serde_json::from_str(r#"{"num_workers":4,"events":[]}"#).unwrap();
        assert_eq!(back.meta_nodes(), DEFAULT_META_NODES);
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
                FaultEvent {
                    at_secs: 1.0,
                    kind: FaultKind::MetaCrash(0),
                },
                FaultEvent {
                    at_secs: 2.0,
                    kind: FaultKind::MetaCrash(1),
                },
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
                FaultEvent {
                    at_secs: 1.0,
                    kind: FaultKind::MetaCrash(1),
                },
                FaultEvent {
                    at_secs: 2.0,
                    kind: FaultKind::MetaCrash(1),
                },
            ],
        )
        .is_err());
        assert!(FaultSchedule::with_meta_nodes(
            4,
            3,
            vec![FaultEvent {
                at_secs: 1.0,
                kind: FaultKind::MetaRestart(0),
            }],
        )
        .is_err());
        assert!(FaultSchedule::with_meta_nodes(
            4,
            3,
            vec![FaultEvent {
                at_secs: 1.0,
                kind: FaultKind::MetaCrash(7),
            }],
        )
        .is_err());
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
                FaultEvent {
                    at_secs: 1.0,
                    kind: FaultKind::WorkerCrash(w(0)),
                },
                FaultEvent {
                    at_secs: 2.0,
                    kind: FaultKind::WorkerDrain(w(0)),
                },
            ],
        )
        .is_err());
        // Draining the last live worker leaves nowhere to migrate.
        let err = FaultSchedule::new(
            2,
            vec![
                FaultEvent {
                    at_secs: 1.0,
                    kind: FaultKind::WorkerCrash(w(0)),
                },
                FaultEvent {
                    at_secs: 2.0,
                    kind: FaultKind::WorkerDrain(w(1)),
                },
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("nowhere to migrate"), "{err}");
        // A join may re-occupy a *crashed* slot (replacement hardware), but
        // never a live one.
        assert!(FaultSchedule::new(
            3,
            vec![
                FaultEvent {
                    at_secs: 1.0,
                    kind: FaultKind::WorkerCrash(w(2)),
                },
                FaultEvent {
                    at_secs: 2.0,
                    kind: FaultKind::WorkerJoin(w(2)),
                },
            ],
        )
        .is_ok());
        assert!(FaultSchedule::new(
            3,
            vec![FaultEvent {
                at_secs: 1.0,
                kind: FaultKind::WorkerJoin(w(2)),
            }],
        )
        .is_err());
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
                FaultEvent {
                    at_secs: 1.0,
                    kind: FaultKind::CutLink { a: w(0), b: w(2) },
                },
                FaultEvent {
                    at_secs: 5.0,
                    kind: FaultKind::HealLink { a: w(2), b: w(0) },
                },
            ],
        );
        // Heal may name the endpoints in either order: links are symmetric.
        assert!(ok.is_ok());
        assert!(ok.unwrap().has_meta_events());

        // Self-link, double cut, and spurious heal are rejected.
        assert!(FaultSchedule::new(
            4,
            vec![FaultEvent {
                at_secs: 1.0,
                kind: FaultKind::CutLink { a: w(1), b: w(1) },
            }],
        )
        .is_err());
        assert!(FaultSchedule::new(
            4,
            vec![
                FaultEvent {
                    at_secs: 1.0,
                    kind: FaultKind::CutLink { a: w(0), b: w(1) },
                },
                FaultEvent {
                    at_secs: 2.0,
                    kind: FaultKind::CutLink { a: w(1), b: w(0) },
                },
            ],
        )
        .is_err());
        assert!(FaultSchedule::new(
            4,
            vec![FaultEvent {
                at_secs: 1.0,
                kind: FaultKind::HealLink { a: w(0), b: w(1) },
            }],
        )
        .is_err());
    }
}
