//! Epoch-numbered cluster membership, and the one transition function that
//! decides it.

use crate::schedule::{FaultEvent, FaultKind};
use bat_types::{BatError, WorkerId};

/// What a [`ClusterView::apply`] call did, so callers can react (invalidate
/// meta entries, re-plan placement, re-warm a worker, …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AppliedFault {
    /// `worker` just died; its cache contents are gone.
    Crashed(WorkerId),
    /// `worker` just rejoined, empty, with the given new incarnation.
    Restarted(WorkerId, u64),
    /// Network transfer times now multiply by this factor.
    LinkFactor(f64),
    /// The meta service is unresponsive until the given time.
    MetaStalledUntil(f64),
    /// Meta replica `node` just died, losing its log and state.
    MetaCrashed(usize),
    /// Meta replica `node` just rejoined empty and must catch up.
    MetaRestarted(usize),
    /// The link between these two workers was just cut (symmetric).
    LinkCut(WorkerId, WorkerId),
    /// The link between these two workers just healed.
    LinkHealed(WorkerId, WorkerId),
    /// Transfers between these two workers now multiply by the factor
    /// (1.0 = restored to nominal). The pair stays reachable.
    LinkSlowed(WorkerId, WorkerId, f64),
    /// `worker` just left the membership *gracefully*: its queued work has
    /// been migrated, nothing in flight was lost, but its cache contents
    /// leave with the process.
    Drained(WorkerId),
    /// A fresh worker just took over this slot with the given new
    /// incarnation; it joins empty and must re-warm like a restart.
    Joined(WorkerId, u64),
}

/// Live membership of the cache-worker cluster.
///
/// The `epoch` advances on every *worker* membership change (crash,
/// restart, drain or join), so downstream caches of placement decisions can
/// cheaply detect staleness. Each worker also carries an `incarnation`
/// counter, bumped when it rejoins: warmth recorded under an old
/// incarnation must not count for the rejoined (empty) worker. Meta-replica
/// liveness and per-link partitions are tracked alongside but do not bump
/// the worker epoch — the replicated meta group fences with its own
/// election epoch.
///
/// [`ClusterView::apply`] is the cluster's one transition function. A
/// [`crate::FaultSchedule`] is valid exactly when its events, in time
/// order, all apply to a fresh view of its sizes; the planner replays them
/// through a view, and the slot machine and the serving runtime follow the
/// transitions it accepted.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterView {
    epoch: u64,
    alive: Vec<bool>,
    incarnation: Vec<u64>,
    link_factor: f64,
    meta_stall_until: f64,
    /// Liveness of the replicated meta group, index = replica id.
    meta_alive: Vec<bool>,
    /// Symmetric worker-pair link cuts, row-major `a * n + b`.
    link_cut: Vec<bool>,
    /// Symmetric per-link slowdown factors, row-major `a * n + b`.
    link_slow: Vec<f64>,
}

/// A refused transition.
fn invalid<T>(msg: String) -> Result<T, BatError> {
    Err(BatError::InvalidConfig(msg))
}

impl ClusterView {
    /// A fresh view with all `num_workers` workers alive at epoch 0 and a
    /// default-sized meta group (see [`crate::DEFAULT_META_NODES`]).
    pub fn new(num_workers: usize) -> Self {
        ClusterView::with_meta(num_workers, crate::schedule::DEFAULT_META_NODES)
    }

    /// A fresh view with an explicit meta-group size.
    pub fn with_meta(num_workers: usize, meta_nodes: usize) -> Self {
        assert!(num_workers > 0, "cluster needs at least one worker");
        assert!(meta_nodes > 0, "meta group needs at least one replica");
        ClusterView {
            epoch: 0,
            alive: vec![true; num_workers],
            incarnation: vec![0; num_workers],
            link_factor: 1.0,
            meta_stall_until: f64::NEG_INFINITY,
            meta_alive: vec![true; meta_nodes],
            link_cut: vec![false; num_workers * num_workers],
            link_slow: vec![1.0; num_workers * num_workers],
        }
    }

    /// Current membership epoch; bumps on every worker membership change.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total workers, dead or alive.
    pub fn num_workers(&self) -> usize {
        self.alive.len()
    }

    /// Whether `worker` is currently up.
    pub fn is_alive(&self, worker: WorkerId) -> bool {
        self.alive[worker.index()]
    }

    /// Number of live workers (always ≥ 1: the view refuses to lose the
    /// last one).
    pub fn n_alive(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// The live-membership bitmap (index = worker).
    pub fn alive_mask(&self) -> &[bool] {
        &self.alive
    }

    /// Incarnation of `worker`: 0 until its first restart or join.
    pub fn incarnation(&self, worker: WorkerId) -> u64 {
        self.incarnation[worker.index()]
    }

    /// Current multiplier on network transfer time (1.0 = nominal).
    pub fn link_factor(&self) -> f64 {
        self.link_factor
    }

    /// Whether the meta service is inside a stall window at `now`.
    pub fn meta_stalled(&self, now: f64) -> bool {
        now < self.meta_stall_until
    }

    /// Size of the replicated meta group this view tracks.
    pub fn meta_nodes(&self) -> usize {
        self.meta_alive.len()
    }

    /// Whether workers `a` and `b` can talk: both alive and the `a<->b`
    /// link not cut. A worker always reaches itself while alive.
    pub fn reachable(&self, a: WorkerId, b: WorkerId) -> bool {
        let n = self.alive.len();
        self.is_alive(a) && self.is_alive(b) && !self.link_cut[a.index() * n + b.index()]
    }

    /// Per-link slowdown multiplier for transfers between `a` and `b`
    /// (1.0 = nominal). Composes with the global [`ClusterView::link_factor`];
    /// self-transfers are nominal.
    pub fn link_slow_factor(&self, a: WorkerId, b: WorkerId) -> f64 {
        self.link_slow[a.index() * self.alive.len() + b.index()]
    }

    /// Applies one fault event and returns what changed. A refused event
    /// leaves the view as it was.
    ///
    /// # Errors
    ///
    /// [`BatError::InvalidConfig`], naming the event's time and target, for
    /// an out-of-range worker, replica or link; a degrade or slow-link
    /// factor below 1 or a stall that is not positive; a crash or drain of
    /// a worker already out, or of the last one in; a restart or join of a
    /// worker already in; a meta crash of a replica already down or one
    /// that loses the group's quorum; a meta restart of a live replica; a
    /// cut of a cut link and a heal of an intact one.
    pub fn apply(&mut self, event: &FaultEvent) -> Result<AppliedFault, BatError> {
        let (at, n, nodes) = (event.at_secs, self.alive.len(), self.meta_alive.len());
        let worker = |w: WorkerId| match w.index() < n {
            true => Ok(w.index()),
            false => invalid(format!("fault targets {w} but the cluster has {n} workers")),
        };
        let replica = |m: usize| match m < nodes {
            true => Ok(()),
            false => invalid(format!(
                "meta fault targets replica {m} but the group has {nodes} nodes"
            )),
        };
        // A link's two row-major cells, `a<->b` and `b<->a`.
        let link = |what: &str, a: WorkerId, b: WorkerId| {
            if a.index() >= n || b.index() >= n {
                invalid(format!("{what} {a}<->{b} exceeds the {n}-worker cluster"))
            } else if a == b {
                invalid(format!("{what} endpoints must differ, got {a}<->{b}"))
            } else {
                Ok((a.index() * n + b.index(), b.index() * n + a.index()))
            }
        };
        let at_least_one = |what: &str, factor: f64| match factor.is_finite() && factor >= 1.0 {
            true => Ok(()),
            false => invalid(format!("{what} factor {factor} must be >= 1")),
        };
        Ok(match event.kind {
            FaultKind::WorkerCrash(w) | FaultKind::WorkerDrain(w) => {
                let (i, crash) = (worker(w)?, matches!(event.kind, FaultKind::WorkerCrash(_)));
                if !self.alive[i] {
                    return invalid(match crash {
                        true => format!("{w} crashes at t={at} while already down"),
                        false => {
                            format!("{w} drains at t={at} while already out of the membership")
                        }
                    });
                }
                if self.n_alive() == 1 {
                    return invalid(match crash {
                        true => format!("all workers down at t={at}; at least one must stay alive"),
                        false => format!(
                            "draining the last worker at t={at} leaves nowhere to migrate; \
                             at least one must stay alive"
                        ),
                    });
                }
                self.alive[i] = false;
                self.epoch += 1;
                match crash {
                    true => AppliedFault::Crashed(w),
                    false => AppliedFault::Drained(w),
                }
            }
            FaultKind::WorkerRestart(w) | FaultKind::WorkerJoin(w) => {
                let (i, join) = (worker(w)?, matches!(event.kind, FaultKind::WorkerJoin(_)));
                if self.alive[i] {
                    return invalid(match join {
                        true => format!("{w} joins at t={at} while its slot is still occupied"),
                        false => format!("{w} restarts at t={at} while alive"),
                    });
                }
                self.alive[i] = true;
                self.incarnation[i] += 1;
                self.epoch += 1;
                match join {
                    true => AppliedFault::Joined(w, self.incarnation[i]),
                    false => AppliedFault::Restarted(w, self.incarnation[i]),
                }
            }
            FaultKind::MetaCrash(m) => {
                replica(m)?;
                if !self.meta_alive[m] {
                    return invalid(format!(
                        "meta replica {m} crashes at t={at} while already down"
                    ));
                }
                let left = self.meta_alive.iter().filter(|&&a| a).count() - 1;
                let quorum = nodes / 2 + 1;
                if left < quorum {
                    return invalid(format!(
                        "meta quorum lost at t={at}: {left}/{nodes} alive but {quorum} needed \
                         to commit"
                    ));
                }
                self.meta_alive[m] = false;
                AppliedFault::MetaCrashed(m)
            }
            FaultKind::MetaRestart(m) => {
                replica(m)?;
                if self.meta_alive[m] {
                    return invalid(format!("meta replica {m} restarts at t={at} while alive"));
                }
                self.meta_alive[m] = true;
                AppliedFault::MetaRestarted(m)
            }
            FaultKind::CutLink { a, b } | FaultKind::HealLink { a, b } => {
                let ((ab, ba), cut) = (
                    link("link fault", a, b)?,
                    matches!(event.kind, FaultKind::CutLink { .. }),
                );
                if self.link_cut[ab] == cut {
                    return invalid(match cut {
                        true => format!("link {a}<->{b} cut at t={at} while already cut"),
                        false => format!("link {a}<->{b} heals at t={at} while intact"),
                    });
                }
                self.link_cut[ab] = cut;
                self.link_cut[ba] = cut;
                match cut {
                    true => AppliedFault::LinkCut(a, b),
                    false => AppliedFault::LinkHealed(a, b),
                }
            }
            FaultKind::SlowLink { a, b, factor } => {
                let (ab, ba) = link("slow link", a, b)?;
                at_least_one("slow link", factor)?;
                self.link_slow[ab] = factor;
                self.link_slow[ba] = factor;
                AppliedFault::LinkSlowed(a, b, factor)
            }
            FaultKind::LinkDegrade { factor } => {
                at_least_one("link degrade", factor)?;
                self.link_factor = factor;
                AppliedFault::LinkFactor(factor)
            }
            FaultKind::LinkRestore => {
                self.link_factor = 1.0;
                AppliedFault::LinkFactor(1.0)
            }
            FaultKind::MetaStall { duration_secs } => {
                if !(duration_secs.is_finite() && duration_secs > 0.0) {
                    return invalid(format!("meta stall duration {duration_secs} must be > 0"));
                }
                self.meta_stall_until = at + duration_secs;
                AppliedFault::MetaStalledUntil(self.meta_stall_until)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(at_secs: f64, kind: FaultKind) -> FaultEvent {
        FaultEvent { at_secs, kind }
    }

    fn crash(at: f64, w: u64) -> FaultEvent {
        event(at, FaultKind::WorkerCrash(WorkerId::new(w)))
    }

    fn restart(at: f64, w: u64) -> FaultEvent {
        event(at, FaultKind::WorkerRestart(WorkerId::new(w)))
    }

    #[test]
    fn epoch_tracks_membership_changes_only() {
        let mut v = ClusterView::new(4);
        assert_eq!(v.epoch(), 0);
        v.apply(&event(1.0, FaultKind::LinkDegrade { factor: 2.0 }))
            .unwrap();
        assert_eq!(v.epoch(), 0, "link faults do not change membership");
        assert_eq!(v.link_factor(), 2.0);

        assert_eq!(
            v.apply(&crash(2.0, 1)).unwrap(),
            AppliedFault::Crashed(WorkerId::new(1))
        );
        assert_eq!(v.epoch(), 1);
        assert!(!v.is_alive(WorkerId::new(1)));
        assert_eq!(v.n_alive(), 3);
        assert_eq!(v.alive_mask(), [true, false, true, true]);

        assert_eq!(
            v.apply(&restart(3.0, 1)).unwrap(),
            AppliedFault::Restarted(WorkerId::new(1), 1)
        );
        assert_eq!(v.epoch(), 2);
        assert_eq!(v.incarnation(WorkerId::new(1)), 1);
        assert_eq!(v.incarnation(WorkerId::new(0)), 0);
    }

    #[test]
    fn drain_and_join_track_membership_and_incarnation() {
        let mut v = ClusterView::new(3);
        let w2 = WorkerId::new(2);
        assert_eq!(
            v.apply(&event(1.0, FaultKind::WorkerDrain(w2))).unwrap(),
            AppliedFault::Drained(w2)
        );
        assert_eq!(v.epoch(), 1, "drain is a membership change");
        assert!(!v.is_alive(w2));
        assert_eq!(v.n_alive(), 2);

        assert_eq!(
            v.apply(&event(2.0, FaultKind::WorkerJoin(w2))).unwrap(),
            AppliedFault::Joined(w2, 1)
        );
        assert_eq!(v.epoch(), 2);
        assert!(v.is_alive(w2));
        assert_eq!(
            v.incarnation(w2),
            1,
            "a joined worker is a fresh process, fenced by incarnation"
        );
    }

    #[test]
    fn refused_transitions_name_time_and_target_and_change_nothing() {
        let w = WorkerId::new;
        let mut v = ClusterView::with_meta(2, 3);
        v.apply(&crash(1.0, 0)).unwrap();
        v.apply(&event(1.0, FaultKind::MetaCrash(0))).unwrap();
        v.apply(&event(1.0, FaultKind::CutLink { a: w(0), b: w(1) }))
            .unwrap();
        let before = v.clone();
        for (kind, message) in [
            (
                FaultKind::WorkerCrash(w(0)),
                "w0 crashes at t=2 while already down",
            ),
            (
                FaultKind::WorkerDrain(w(0)),
                "drains at t=2 while already out",
            ),
            (FaultKind::WorkerCrash(w(1)), "all workers down at t=2"),
            (
                FaultKind::WorkerDrain(w(1)),
                "draining the last worker at t=2",
            ),
            (
                FaultKind::WorkerRestart(w(1)),
                "restarts at t=2 while alive",
            ),
            (
                FaultKind::WorkerJoin(w(1)),
                "joins at t=2 while its slot is still occupied",
            ),
            (FaultKind::WorkerJoin(w(2)), "the cluster has 2 workers"),
            (
                FaultKind::MetaCrash(0),
                "meta replica 0 crashes at t=2 while already down",
            ),
            (
                FaultKind::MetaCrash(1),
                "meta quorum lost at t=2: 1/3 alive but 2 needed",
            ),
            (
                FaultKind::MetaRestart(2),
                "meta replica 2 restarts at t=2 while alive",
            ),
            (FaultKind::MetaRestart(3), "the group has 3 nodes"),
            (
                FaultKind::CutLink { a: w(1), b: w(0) },
                "cut at t=2 while already cut",
            ),
            (
                FaultKind::CutLink { a: w(1), b: w(1) },
                "endpoints must differ",
            ),
            (
                FaultKind::HealLink { a: w(0), b: w(2) },
                "exceeds the 2-worker cluster",
            ),
            (
                FaultKind::SlowLink {
                    a: w(0),
                    b: w(1),
                    factor: 0.5,
                },
                "factor 0.5 must be >= 1",
            ),
            (
                FaultKind::LinkDegrade { factor: f64::NAN },
                "factor NaN must be >= 1",
            ),
            (
                FaultKind::MetaStall { duration_secs: 0.0 },
                "duration 0 must be > 0",
            ),
        ] {
            let err = v.apply(&event(2.0, kind)).unwrap_err();
            assert!(
                matches!(&err, BatError::InvalidConfig(m) if m.contains(message)),
                "{kind:?}: {err}"
            );
            assert_eq!(v, before, "{kind:?} was refused but changed the view");
        }
        v.apply(&event(2.0, FaultKind::HealLink { a: w(1), b: w(0) }))
            .unwrap();
        let err = v
            .apply(&event(3.0, FaultKind::HealLink { a: w(0), b: w(1) }))
            .unwrap_err();
        assert!(
            err.to_string().contains("heals at t=3 while intact"),
            "{err}"
        );
    }

    // A caller that unwraps a refused transition panics with the view's
    // message, naming the event's time and target.
    #[test]
    #[should_panic(expected = "w0 crashes at t=2 while already down")]
    fn double_crash_panics() {
        let mut v = ClusterView::new(2);
        v.apply(&crash(1.0, 0)).unwrap();
        v.apply(&crash(2.0, 0)).unwrap();
    }

    #[test]
    #[should_panic(expected = "w0 drains at t=2 while already out of the membership")]
    fn drain_of_downed_worker_panics() {
        let mut v = ClusterView::new(2);
        v.apply(&crash(1.0, 0)).unwrap();
        v.apply(&event(2.0, FaultKind::WorkerDrain(WorkerId::new(0))))
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "meta replica 0 crashes at t=2 while already down")]
    fn double_meta_crash_panics() {
        let mut v = ClusterView::with_meta(2, 3);
        v.apply(&event(1.0, FaultKind::MetaCrash(0))).unwrap();
        v.apply(&event(2.0, FaultKind::MetaCrash(0))).unwrap();
    }

    #[test]
    fn meta_stall_window_has_an_end() {
        let mut v = ClusterView::new(2);
        assert!(!v.meta_stalled(0.0));
        v.apply(&event(10.0, FaultKind::MetaStall { duration_secs: 5.0 }))
            .unwrap();
        assert!(v.meta_stalled(12.0));
        assert!(!v.meta_stalled(15.0));
    }

    #[test]
    fn meta_faults_and_partitions_do_not_bump_worker_epoch() {
        let mut v = ClusterView::with_meta(4, 3);
        let n_meta_alive = |v: &ClusterView| v.meta_alive.iter().filter(|&&a| a).count();
        assert_eq!(v.meta_nodes(), 3);
        assert_eq!(n_meta_alive(&v), 3);

        assert_eq!(
            v.apply(&event(1.0, FaultKind::MetaCrash(1))).unwrap(),
            AppliedFault::MetaCrashed(1)
        );
        assert_eq!(v.epoch(), 0, "meta liveness is not worker membership");
        assert_eq!(n_meta_alive(&v), 2);

        assert_eq!(
            v.apply(&event(2.0, FaultKind::MetaRestart(1))).unwrap(),
            AppliedFault::MetaRestarted(1)
        );
        assert_eq!(n_meta_alive(&v), 3);

        let (a, b) = (WorkerId::new(0), WorkerId::new(2));
        assert!(v.reachable(a, b));
        v.apply(&event(3.0, FaultKind::CutLink { a, b })).unwrap();
        assert_eq!(v.epoch(), 0, "partitions are not membership changes");
        assert!(!v.reachable(a, b));
        assert!(!v.reachable(b, a), "cuts are symmetric");
        assert!(v.reachable(a, WorkerId::new(1)), "other pairs unaffected");
        assert!(v.reachable(a, a), "a live worker reaches itself");

        v.apply(&event(4.0, FaultKind::HealLink { a: b, b: a }))
            .unwrap();
        assert!(v.reachable(a, b));
    }

    #[test]
    fn slow_links_scale_without_cutting_reachability() {
        let mut v = ClusterView::new(4);
        let (a, b) = (WorkerId::new(0), WorkerId::new(3));
        assert_eq!(v.link_slow_factor(a, b), 1.0);
        assert_eq!(
            v.apply(&event(1.0, FaultKind::SlowLink { a, b, factor: 8.0 }))
                .unwrap(),
            AppliedFault::LinkSlowed(a, b, 8.0)
        );
        assert_eq!(v.epoch(), 0, "slow links are not membership changes");
        assert_eq!(v.link_slow_factor(a, b), 8.0);
        assert_eq!(v.link_slow_factor(b, a), 8.0, "slowdowns are symmetric");
        assert_eq!(v.link_slow_factor(a, WorkerId::new(1)), 1.0);
        assert_eq!(v.link_slow_factor(a, a), 1.0, "self-transfer is local");
        assert!(v.reachable(a, b), "a slow link is still reachable");

        v.apply(&event(2.0, FaultKind::SlowLink { a, b, factor: 1.0 }))
            .unwrap();
        assert_eq!(v.link_slow_factor(a, b), 1.0);
        assert_eq!(v.link_slow_factor(b, a), 1.0);
    }

    #[test]
    fn dead_workers_are_unreachable_regardless_of_links() {
        let mut v = ClusterView::new(3);
        v.apply(&crash(1.0, 2)).unwrap();
        assert!(!v.reachable(WorkerId::new(0), WorkerId::new(2)));
        assert!(!v.reachable(WorkerId::new(2), WorkerId::new(2)));
        assert!(v.reachable(WorkerId::new(0), WorkerId::new(1)));
    }
}
