//! The client handle the planner talks to instead of a local meta index.

use crate::command::{MetaCommand, ViewChange};
use crate::group::{MetaError, MetaGroup, Receipt};
use bat_kvcache::CacheKey;

/// Millisecond-quantized trace time, the hotness table's timestamp unit.
/// Quantizing keeps the table free of float state, so every replica's
/// [`crate::MetaState`] agrees bit for bit.
fn meta_time_ms(now_secs: f64) -> u64 {
    (now_secs * 1000.0).round() as u64
}

/// Client-side counters; planning-deterministic like everything else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Commands successfully committed.
    pub submitted: u64,
    /// Submit attempts retried after a node-down/fenced response.
    pub retries: u64,
    /// Redirects followed after contacting a follower.
    pub redirects: u64,
    /// Elections forced because the leader was unreachable across a cut
    /// worker link.
    pub forced_elections: u64,
    /// Submits that had to fall back to an unreachable leader because no
    /// client-reachable replica could win an election.
    pub blocked_unreachable: u64,
}

/// The worker the client (the planner) rides on.
const CLIENT_WORKER: usize = 0;

/// Retry/redirect client for a [`MetaGroup`], hosted on a cache worker.
///
/// Replica `m` of the group is hosted on worker `m % num_workers`; the
/// client rides on [`CLIENT_WORKER`]. Meta-to-meta traffic runs on the
/// control plane (unaffected by worker-fabric cuts), but the client's
/// command path crosses the worker fabric — so a per-link partition that
/// severs the client's worker from the leader's host makes the leader
/// *unreachable*, and the client responds by forcing an election among the
/// replicas it can still reach.
///
/// The client drives the group's logical clock from nominal trace time and
/// keeps a leader hint so the common case is a single hop.
#[derive(Debug)]
pub struct MetaClient {
    group: MetaGroup,
    num_workers: usize,
    /// Whether the client can currently reach each replica's host worker.
    reach: Vec<bool>,
    leader_hint: Option<usize>,
    stats: ClientStats,
}

impl MetaClient {
    /// A client for a fresh `num_nodes`-replica group seeded with `seed`,
    /// hosted across `num_workers` cache workers, with the client (the
    /// planner) riding on worker 0.
    pub fn new(num_nodes: usize, seed: u64, num_workers: usize) -> Self {
        assert!(num_workers >= 1, "need at least one host worker");
        MetaClient {
            group: MetaGroup::new(num_nodes, seed),
            num_workers,
            reach: vec![true; num_nodes],
            leader_hint: None,
            stats: ClientStats::default(),
        }
    }

    /// Worker hosting replica `m`.
    pub fn host_of(&self, m: usize) -> usize {
        m % self.num_workers
    }

    /// Recomputes which replicas the client can reach, given a predicate
    /// over worker-fabric reachability from the client's host. Call after
    /// every link cut/heal or worker membership change.
    pub fn update_reachability(&mut self, worker_reachable: impl Fn(usize, usize) -> bool) {
        for m in 0..self.group.num_nodes() {
            self.reach[m] = worker_reachable(CLIENT_WORKER, self.host_of(m));
        }
    }

    /// The underlying group, for introspection.
    pub fn group(&self) -> &MetaGroup {
        &self.group
    }

    /// Client-side counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Injects a meta-replica crash at nominal time `at`.
    pub fn crash_replica(&mut self, m: usize, at: f64) {
        self.group.advance_to(at);
        self.group.crash(m);
        if self.leader_hint == Some(m) {
            self.leader_hint = None;
        }
    }

    /// Injects a meta-replica rejoin at nominal time `at`.
    pub fn restart_replica(&mut self, m: usize, at: f64) {
        self.group.advance_to(at);
        self.group.restart(m);
    }

    /// Commits `cmd`, retrying through redirects, fenced leaders, and
    /// unreachable-leader elections until it lands. Validated fault
    /// schedules keep a quorum alive, so this cannot fail for them; losing
    /// quorum anyway panics rather than silently dropping meta state.
    pub fn submit(&mut self, cmd: MetaCommand, now: f64) -> Receipt {
        self.group.advance_to(now);
        for _ in 0..self.group.num_nodes() * 2 + 2 {
            let target = match self.leader_hint {
                Some(l) => l,
                None => self
                    .group
                    .ensure_leader()
                    .expect("validated schedules keep a meta quorum alive"),
            };
            // A leader the client cannot reach across the worker fabric is
            // as good as down: force an election among reachable replicas.
            if !self.reach[target] {
                self.stats.forced_elections += 1;
                let reach = self.reach.clone();
                match self.group.force_election(|m| reach[m]) {
                    Some(l) => {
                        self.leader_hint = Some(l);
                        continue;
                    }
                    None => {
                        // No reachable replica can win; fall back to the
                        // control-plane path rather than dropping the
                        // command.
                        self.stats.blocked_unreachable += 1;
                    }
                }
            }
            match self.group.try_append_via(target, &cmd) {
                Ok(r) => {
                    self.leader_hint = Some(target);
                    self.stats.submitted += 1;
                    return r;
                }
                Err(MetaError::NotLeader { current }) => {
                    self.stats.redirects += 1;
                    self.leader_hint = current;
                }
                Err(MetaError::Fenced { .. }) | Err(MetaError::NodeDown(_)) => {
                    self.stats.retries += 1;
                    self.leader_hint = None;
                }
                Err(e @ MetaError::NoQuorum) => {
                    panic!("meta group unservable: {e}");
                }
            }
        }
        panic!("meta submit did not converge — leader churn exceeded retry budget");
    }

    /// Records that `key` now exists in the pool with `bytes` resident.
    pub fn register(&mut self, key: CacheKey, bytes: u64, now: f64) {
        self.submit(MetaCommand::RegisterEntry { key, bytes }, now);
    }

    /// Removes `key` from the index (capacity eviction or invalidation).
    pub fn evict(&mut self, key: CacheKey, now: f64) {
        self.submit(MetaCommand::Evict { key }, now);
    }

    /// Bumps `key`'s hotness: one more access at `now`.
    pub fn touch(&mut self, key: CacheKey, now: f64) {
        self.submit(
            MetaCommand::HotnessDelta {
                key,
                at_ms: meta_time_ms(now),
            },
            now,
        );
    }

    /// Drops every *user* entry owned by the crashed worker
    /// (`user % num_workers == worker_index`), returning how many entries
    /// were invalidated. Item entries are HRCS-replicated and survive.
    pub fn drop_user_partition(
        &mut self,
        worker_index: usize,
        num_workers: usize,
        now: f64,
    ) -> u64 {
        let dropped = self
            .group
            .read(|s| s.partition_entries(worker_index, num_workers));
        self.submit(
            MetaCommand::View(ViewChange::WorkerCrashed {
                worker: worker_index,
                num_workers,
            }),
            now,
        );
        dropped
    }

    /// Notes that a worker rejoined (the view epoch advances; the index
    /// itself is unchanged — the worker rejoins empty).
    pub fn note_worker_restart(&mut self, worker_index: usize, now: f64) {
        self.submit(
            MetaCommand::View(ViewChange::WorkerRestarted {
                worker: worker_index,
            }),
            now,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetaState;
    use bat_types::UserId;

    fn key(i: u64) -> CacheKey {
        UserId::new(i).into()
    }

    fn num_entries(c: &MetaClient) -> usize {
        c.group().read(|s| s.num_entries())
    }

    #[test]
    fn client_behaves_like_a_local_meta_index() {
        // The replicated client against one state fed the same commands,
        // touch times quantized to the millisecond by hand.
        let mut c = MetaClient::new(3, 9, 4);
        let mut local = MetaState::new();
        for i in 0..40u64 {
            let t = i as f64 * 0.5;
            c.register(key(i), 100 + i, t);
            local.apply(&MetaCommand::RegisterEntry {
                key: key(i),
                bytes: 100 + i,
            });
            // A sub-millisecond offset lands on the same timestamp.
            c.touch(key(i / 2), t + 0.0004);
            local.apply(&MetaCommand::HotnessDelta {
                key: key(i / 2),
                at_ms: i * 500,
            });
            if i % 7 == 0 {
                c.evict(key(i / 3), t);
                local.apply(&MetaCommand::Evict { key: key(i / 3) });
            }
        }
        let expected = local.partition_entries(1, 4);
        assert_eq!(c.drop_user_partition(1, 4, 21.0), expected);
        local.apply(&MetaCommand::View(ViewChange::WorkerCrashed {
            worker: 1,
            num_workers: 4,
        }));
        c.note_worker_restart(1, 22.0);
        local.apply(&MetaCommand::View(ViewChange::WorkerRestarted {
            worker: 1,
        }));
        c.group().read(|s| {
            assert_eq!(s.num_entries(), local.num_entries());
            assert_eq!(s.digest(), local.digest(), "replicated == local, bitwise");
        });
    }

    #[test]
    fn leader_crash_mid_stream_loses_nothing() {
        let mut c = MetaClient::new(3, 4, 4);
        for i in 0..10u64 {
            c.register(key(i), 1, i as f64);
        }
        let epoch_before = c.group().epoch();
        let leader = c.group().leader().unwrap();
        c.crash_replica(leader, 10.0);
        for i in 10..20u64 {
            c.register(key(i), 1, i as f64);
        }
        assert!(c.group().epoch() > epoch_before);
        assert_eq!(num_entries(&c), 20);
        assert_eq!(c.stats().submitted, 20);
        c.restart_replica(leader, 25.0);
        c.register(key(20), 1, 30.0);
        for m in 0..3 {
            assert_eq!(c.group().applied_of(m), 21, "replica {m}");
        }
    }

    #[test]
    fn unreachable_leader_triggers_forced_election() {
        // 3 replicas on 3 workers: replica m lives on worker m. Cut the
        // client (worker 0) off from the leader's host.
        let mut c = MetaClient::new(3, 6, 3);
        c.register(key(1), 1, 0.0);
        let leader = c.group().leader().unwrap();
        let leader_host = c.host_of(leader);
        if leader_host == 0 {
            // The leader shares the client's worker; nothing to cut.
            return;
        }
        c.update_reachability(|from, to| !(from == 0 && to == leader_host));
        let epoch_before = c.group().epoch();
        c.register(key(2), 1, 1.0);
        assert!(c.stats().forced_elections >= 1);
        let new_leader = c.group().leader().unwrap();
        assert_ne!(c.host_of(new_leader), leader_host);
        assert!(c.group().epoch() > epoch_before);
        assert_eq!(num_entries(&c), 2, "command still committed");
    }
}
