//! Epoch-numbered cluster membership.

use crate::schedule::{FaultEvent, FaultKind};
use bat_types::WorkerId;
use serde::{Deserialize, Serialize};

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
/// The `epoch` advances on every *worker* membership change (crash or
/// restart), so downstream caches of placement decisions can cheaply detect
/// staleness. Each worker also carries an `incarnation` counter, bumped when
/// it rejoins: warmth recorded under an old incarnation must not count for
/// the rejoined (empty) worker. Meta-replica liveness and per-link
/// partitions are tracked alongside but do not bump the worker epoch — the
/// replicated meta group fences with its own election epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterView {
    epoch: u64,
    alive: Vec<bool>,
    incarnation: Vec<u64>,
    link_factor: f64,
    meta_stall_until: f64,
    /// Liveness of the replicated meta group, index = replica id.
    #[serde(default)]
    meta_alive: Vec<bool>,
    /// Symmetric worker-pair link cuts, row-major `a * n + b`.
    #[serde(default)]
    link_cut: Vec<bool>,
    /// Symmetric per-link slowdown factors, row-major `a * n + b`; empty
    /// (views from before slow links existed) reads as all-nominal.
    #[serde(default)]
    link_slow: Vec<f64>,
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

    /// Current membership epoch; bumps on every crash or restart.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total workers, dead or alive.
    pub fn num_workers(&self) -> usize {
        self.alive.len()
    }

    /// Whether `worker` is currently up.
    pub fn is_alive(&self, worker: WorkerId) -> bool {
        self.alive.get(worker.index()).copied().unwrap_or(false)
    }

    /// Number of live workers (always ≥ 1 for a valid schedule).
    pub fn n_alive(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Indices of the live workers, ascending.
    pub fn alive_workers(&self) -> impl Iterator<Item = WorkerId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| WorkerId::new(i as u64))
    }

    /// The live-membership bitmap (index = worker).
    pub fn alive_mask(&self) -> &[bool] {
        &self.alive
    }

    /// Incarnation of `worker`: 0 until its first restart.
    pub fn incarnation(&self, worker: WorkerId) -> u64 {
        self.incarnation.get(worker.index()).copied().unwrap_or(0)
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
    /// link not cut. A worker always reaches itself while alive. Views
    /// deserialized from before partitions existed have every link intact.
    pub fn reachable(&self, a: WorkerId, b: WorkerId) -> bool {
        if !self.is_alive(a) || !self.is_alive(b) {
            return false;
        }
        if a == b {
            return true;
        }
        let n = self.alive.len();
        !self
            .link_cut
            .get(a.index() * n + b.index())
            .copied()
            .unwrap_or(false)
    }

    /// Per-link slowdown multiplier for transfers between `a` and `b`
    /// (1.0 = nominal). Composes with the global [`ClusterView::link_factor`];
    /// self-transfers and unknown pairs are nominal.
    pub fn link_slow_factor(&self, a: WorkerId, b: WorkerId) -> f64 {
        if a == b {
            return 1.0;
        }
        let n = self.alive.len();
        self.link_slow
            .get(a.index() * n + b.index())
            .copied()
            .unwrap_or(1.0)
    }

    /// Applies one fault event, returning what changed. Events must come
    /// from a validated [`crate::FaultSchedule`]; applying a crash to a dead
    /// worker (or restart to a live one) panics, because it means the caller
    /// replayed events out of order.
    pub fn apply(&mut self, event: &FaultEvent) -> AppliedFault {
        match event.kind {
            FaultKind::WorkerCrash(w) => {
                assert!(
                    self.alive[w.index()],
                    "{w} crashed while already down — events applied out of order"
                );
                self.alive[w.index()] = false;
                self.epoch += 1;
                AppliedFault::Crashed(w)
            }
            FaultKind::WorkerRestart(w) => {
                assert!(
                    !self.alive[w.index()],
                    "{w} restarted while alive — events applied out of order"
                );
                self.alive[w.index()] = true;
                self.incarnation[w.index()] += 1;
                self.epoch += 1;
                AppliedFault::Restarted(w, self.incarnation[w.index()])
            }
            FaultKind::LinkDegrade { factor } => {
                self.link_factor = factor;
                AppliedFault::LinkFactor(factor)
            }
            FaultKind::LinkRestore => {
                self.link_factor = 1.0;
                AppliedFault::LinkFactor(1.0)
            }
            FaultKind::MetaStall { duration_secs } => {
                self.meta_stall_until = event.at_secs + duration_secs;
                AppliedFault::MetaStalledUntil(self.meta_stall_until)
            }
            FaultKind::MetaCrash(m) => {
                if self.meta_alive.len() <= m {
                    self.meta_alive.resize(m + 1, true);
                }
                assert!(
                    self.meta_alive[m],
                    "meta replica {m} crashed while already down — events applied out of order"
                );
                self.meta_alive[m] = false;
                AppliedFault::MetaCrashed(m)
            }
            FaultKind::MetaRestart(m) => {
                assert!(
                    self.meta_alive.get(m) == Some(&false),
                    "meta replica {m} restarted while alive — events applied out of order"
                );
                self.meta_alive[m] = true;
                AppliedFault::MetaRestarted(m)
            }
            FaultKind::CutLink { a, b } => {
                let n = self.alive.len();
                if self.link_cut.len() < n * n {
                    self.link_cut.resize(n * n, false);
                }
                assert!(
                    !self.link_cut[a.index() * n + b.index()],
                    "link {a}<->{b} cut while already cut — events applied out of order"
                );
                self.link_cut[a.index() * n + b.index()] = true;
                self.link_cut[b.index() * n + a.index()] = true;
                AppliedFault::LinkCut(a, b)
            }
            FaultKind::HealLink { a, b } => {
                let n = self.alive.len();
                assert!(
                    self.link_cut.get(a.index() * n + b.index()) == Some(&true),
                    "link {a}<->{b} healed while intact — events applied out of order"
                );
                self.link_cut[a.index() * n + b.index()] = false;
                self.link_cut[b.index() * n + a.index()] = false;
                AppliedFault::LinkHealed(a, b)
            }
            FaultKind::WorkerDrain(w) => {
                assert!(
                    self.alive[w.index()],
                    "{w} drained while already out — events applied out of order"
                );
                self.alive[w.index()] = false;
                self.epoch += 1;
                AppliedFault::Drained(w)
            }
            FaultKind::WorkerJoin(w) => {
                assert!(
                    !self.alive[w.index()],
                    "{w} joined while its slot is occupied — events applied out of order"
                );
                self.alive[w.index()] = true;
                self.incarnation[w.index()] += 1;
                self.epoch += 1;
                AppliedFault::Joined(w, self.incarnation[w.index()])
            }
            FaultKind::SlowLink { a, b, factor } => {
                let n = self.alive.len();
                if self.link_slow.len() < n * n {
                    self.link_slow.resize(n * n, 1.0);
                }
                self.link_slow[a.index() * n + b.index()] = factor;
                self.link_slow[b.index() * n + a.index()] = factor;
                AppliedFault::LinkSlowed(a, b, factor)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(at: f64, w: u64) -> FaultEvent {
        FaultEvent {
            at_secs: at,
            kind: FaultKind::WorkerCrash(WorkerId::new(w)),
        }
    }

    fn restart(at: f64, w: u64) -> FaultEvent {
        FaultEvent {
            at_secs: at,
            kind: FaultKind::WorkerRestart(WorkerId::new(w)),
        }
    }

    #[test]
    fn epoch_tracks_membership_changes_only() {
        let mut v = ClusterView::new(4);
        assert_eq!(v.epoch(), 0);
        v.apply(&FaultEvent {
            at_secs: 1.0,
            kind: FaultKind::LinkDegrade { factor: 2.0 },
        });
        assert_eq!(v.epoch(), 0, "link faults do not change membership");
        assert_eq!(v.link_factor(), 2.0);

        assert_eq!(
            v.apply(&crash(2.0, 1)),
            AppliedFault::Crashed(WorkerId::new(1))
        );
        assert_eq!(v.epoch(), 1);
        assert!(!v.is_alive(WorkerId::new(1)));
        assert_eq!(v.n_alive(), 3);
        let alive: Vec<u64> = v.alive_workers().map(|w| w.as_u64()).collect();
        assert_eq!(alive, vec![0, 2, 3]);

        assert_eq!(
            v.apply(&restart(3.0, 1)),
            AppliedFault::Restarted(WorkerId::new(1), 1)
        );
        assert_eq!(v.epoch(), 2);
        assert_eq!(v.incarnation(WorkerId::new(1)), 1);
        assert_eq!(v.incarnation(WorkerId::new(0)), 0);
    }

    #[test]
    fn drain_and_join_track_membership_and_incarnation() {
        let mut v = ClusterView::new(3);
        assert_eq!(
            v.apply(&FaultEvent {
                at_secs: 1.0,
                kind: FaultKind::WorkerDrain(WorkerId::new(2)),
            }),
            AppliedFault::Drained(WorkerId::new(2))
        );
        assert_eq!(v.epoch(), 1, "drain is a membership change");
        assert!(!v.is_alive(WorkerId::new(2)));
        assert_eq!(v.n_alive(), 2);

        assert_eq!(
            v.apply(&FaultEvent {
                at_secs: 2.0,
                kind: FaultKind::WorkerJoin(WorkerId::new(2)),
            }),
            AppliedFault::Joined(WorkerId::new(2), 1)
        );
        assert_eq!(v.epoch(), 2);
        assert!(v.is_alive(WorkerId::new(2)));
        assert_eq!(
            v.incarnation(WorkerId::new(2)),
            1,
            "a joined worker is a fresh process, fenced by incarnation"
        );
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn drain_of_downed_worker_panics() {
        let mut v = ClusterView::new(2);
        v.apply(&crash(1.0, 0));
        v.apply(&FaultEvent {
            at_secs: 2.0,
            kind: FaultKind::WorkerDrain(WorkerId::new(0)),
        });
    }

    #[test]
    fn meta_stall_window_has_an_end() {
        let mut v = ClusterView::new(2);
        assert!(!v.meta_stalled(0.0));
        v.apply(&FaultEvent {
            at_secs: 10.0,
            kind: FaultKind::MetaStall { duration_secs: 5.0 },
        });
        assert!(v.meta_stalled(12.0));
        assert!(!v.meta_stalled(15.0));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn double_crash_panics() {
        let mut v = ClusterView::new(2);
        v.apply(&crash(1.0, 0));
        v.apply(&crash(2.0, 0));
    }

    #[test]
    fn meta_faults_and_partitions_do_not_bump_worker_epoch() {
        let mut v = ClusterView::with_meta(4, 3);
        let n_meta_alive = |v: &ClusterView| v.meta_alive.iter().filter(|&&a| a).count();
        assert_eq!(v.meta_nodes(), 3);
        assert_eq!(n_meta_alive(&v), 3);

        assert_eq!(
            v.apply(&FaultEvent {
                at_secs: 1.0,
                kind: FaultKind::MetaCrash(1),
            }),
            AppliedFault::MetaCrashed(1)
        );
        assert_eq!(v.epoch(), 0, "meta liveness is not worker membership");
        assert_eq!(n_meta_alive(&v), 2);

        assert_eq!(
            v.apply(&FaultEvent {
                at_secs: 2.0,
                kind: FaultKind::MetaRestart(1),
            }),
            AppliedFault::MetaRestarted(1)
        );
        assert_eq!(n_meta_alive(&v), 3);

        let (a, b) = (WorkerId::new(0), WorkerId::new(2));
        assert!(v.reachable(a, b));
        v.apply(&FaultEvent {
            at_secs: 3.0,
            kind: FaultKind::CutLink { a, b },
        });
        assert_eq!(v.epoch(), 0, "partitions are not membership changes");
        assert!(!v.reachable(a, b));
        assert!(!v.reachable(b, a), "cuts are symmetric");
        assert!(v.reachable(a, WorkerId::new(1)), "other pairs unaffected");
        assert!(v.reachable(a, a), "a live worker reaches itself");

        v.apply(&FaultEvent {
            at_secs: 4.0,
            kind: FaultKind::HealLink { a: b, b: a },
        });
        assert!(v.reachable(a, b));
    }

    #[test]
    fn slow_links_scale_without_cutting_reachability() {
        let mut v = ClusterView::new(4);
        let (a, b) = (WorkerId::new(0), WorkerId::new(3));
        assert_eq!(v.link_slow_factor(a, b), 1.0);
        assert_eq!(
            v.apply(&FaultEvent {
                at_secs: 1.0,
                kind: FaultKind::SlowLink { a, b, factor: 8.0 },
            }),
            AppliedFault::LinkSlowed(a, b, 8.0)
        );
        assert_eq!(v.epoch(), 0, "slow links are not membership changes");
        assert_eq!(v.link_slow_factor(a, b), 8.0);
        assert_eq!(v.link_slow_factor(b, a), 8.0, "slowdowns are symmetric");
        assert_eq!(v.link_slow_factor(a, WorkerId::new(1)), 1.0);
        assert_eq!(v.link_slow_factor(a, a), 1.0, "self-transfer is local");
        assert!(v.reachable(a, b), "a slow link is still reachable");

        v.apply(&FaultEvent {
            at_secs: 2.0,
            kind: FaultKind::SlowLink { a, b, factor: 1.0 },
        });
        assert_eq!(v.link_slow_factor(a, b), 1.0);
        assert_eq!(v.link_slow_factor(b, a), 1.0);
    }

    #[test]
    fn dead_workers_are_unreachable_regardless_of_links() {
        let mut v = ClusterView::new(3);
        v.apply(&crash(1.0, 2));
        assert!(!v.reachable(WorkerId::new(0), WorkerId::new(2)));
        assert!(!v.reachable(WorkerId::new(2), WorkerId::new(2)));
        assert!(v.reachable(WorkerId::new(0), WorkerId::new(1)));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn double_meta_crash_panics() {
        let mut v = ClusterView::with_meta(2, 3);
        v.apply(&FaultEvent {
            at_secs: 1.0,
            kind: FaultKind::MetaCrash(0),
        });
        v.apply(&FaultEvent {
            at_secs: 2.0,
            kind: FaultKind::MetaCrash(0),
        });
    }
}
