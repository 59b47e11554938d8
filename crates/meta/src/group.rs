//! The replicated meta group: seeded-tick leader election, majority-commit
//! log replication, epoch fencing, and install or log-replay catch-up.
//!
//! The protocol is a deliberately deterministic Raft-style core. Time is a
//! logical tick counter derived from *nominal trace time* (never
//! wall-clock): leaders heartbeat every few ticks, followers that miss
//! heartbeats for a seed-randomized timeout start an election, and a
//! candidate wins with a majority of votes at a strictly higher epoch.
//! Replication is synchronous inside [`MetaGroup::try_append_via`]: an
//! entry commits only after a majority of replicas hold it, and a deposed
//! leader's append is *fenced* — any contacted replica at a higher epoch
//! rejects the write before it reaches the log, so stale-epoch commands are
//! never applied anywhere.
//!
//! Every replica holds a prefix of one committed log: an entry reaches a
//! log only when it commits, and a lagging replica only takes the leader's
//! entries. So the group keeps one [`crate::MetaState`], the fold of every
//! committed command, and a replica is its position in that log: how many
//! entries it holds and where its compacted prefix ends. Every protocol
//! decision reads only those lengths.
//!
//! Every source of nondeterminism is pinned: election timeouts come from a
//! splitmix64 hash of `(seed, node, epoch)`, ties break in node-id order,
//! and the state machine itself ([`crate::MetaState`]) is pure. Two runs
//! that issue the same command sequence at the same nominal times — e.g.
//! `bat-sim`'s event loop and `bat-serve`'s threaded runtime — therefore
//! produce bit-identical group histories, which is what makes meta failover
//! testable as an equality of final run statistics.

use crate::command::MetaCommand;
use crate::state::MetaState;
use std::fmt;

/// Logical tick length in seconds of nominal trace time.
pub const TICK_SECS: f64 = 0.01;
/// A live leader heartbeats its followers every this many ticks.
pub const HEARTBEAT_TICKS: u64 = 5;
/// Election timeouts are drawn from `[ELECTION_MIN_TICKS,
/// ELECTION_MIN_TICKS + ELECTION_SPREAD_TICKS)`.
pub const ELECTION_MIN_TICKS: u64 = 10;
/// Width of the randomized election-timeout window, ticks.
pub const ELECTION_SPREAD_TICKS: u64 = 10;
/// A replica compacts its log once it holds this many entries; a follower
/// that falls behind the compacted prefix then catches up by install (it
/// takes the leader's prefix and log) instead of by suffix replay.
pub const COMPACT_TRIGGER: usize = 64;
/// Upper bound on ticks [`MetaGroup::ensure_leader`] will drive waiting for
/// an election to conclude; exceeding it means the group lost quorum, which
/// validated fault schedules rule out.
const MAX_DRIVE_TICKS: u64 = 100_000;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Why a meta operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaError {
    /// Not enough live replicas acknowledged; the entry was not committed.
    NoQuorum,
    /// The contacted replica is down.
    NodeDown(usize),
    /// The contacted replica is a follower; retry at the current leader.
    NotLeader {
        /// The leader to redirect to, if one is known and alive.
        current: Option<usize>,
    },
    /// Epoch fencing rejected a deposed leader's write: a contacted
    /// replica holds a strictly higher epoch.
    Fenced {
        /// The deposed leader's stale epoch.
        stale_epoch: u64,
        /// The higher epoch that fenced it.
        current_epoch: u64,
    },
}

impl fmt::Display for MetaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaError::NoQuorum => write!(f, "meta group lost quorum"),
            MetaError::NodeDown(m) => write!(f, "meta replica {m} is down"),
            MetaError::NotLeader { current } => match current {
                Some(l) => write!(f, "not the leader; redirect to replica {l}"),
                None => write!(f, "not the leader; no leader elected"),
            },
            MetaError::Fenced {
                stale_epoch,
                current_epoch,
            } => write!(
                f,
                "write fenced: stale epoch {stale_epoch} < current epoch {current_epoch}"
            ),
        }
    }
}

/// Proof of commit returned to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Receipt {
    /// Epoch the entry committed under.
    pub epoch: u64,
    /// Global log index of the committed entry.
    pub index: usize,
}

/// Replication counters, all planning-deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Successful leader elections (including the initial one).
    pub elections: u64,
    /// Election attempts that failed to reach a majority.
    pub failed_elections: u64,
    /// Entries committed (majority-acknowledged and applied).
    pub committed: u64,
    /// Stale-epoch appends rejected by fencing.
    pub fenced_appends: u64,
    /// Installs of the leader's compacted prefix (a snapshot) performed to
    /// catch followers up.
    pub snapshot_installs: u64,
    /// Log entries installs handed over on top of the prefix.
    pub replayed_entries: u64,
}

/// A replica: its liveness, its election state, and its position in the
/// group's one committed log.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MetaNode {
    alive: bool,
    /// Cut off from its peers (exchanges no messages) — how a deposed
    /// leader can keep believing it leads.
    isolated: bool,
    believes_leader: bool,
    epoch: u64,
    /// Length of the compacted log prefix.
    base_len: usize,
    /// Committed entries the replica holds: its compacted prefix and its
    /// live log.
    applied: usize,
    last_heartbeat_tick: u64,
    timeout_ticks: u64,
}

impl MetaNode {
    fn fresh(tick: u64) -> Self {
        MetaNode {
            alive: true,
            isolated: false,
            believes_leader: false,
            epoch: 0,
            base_len: 0,
            applied: 0,
            last_heartbeat_tick: tick,
            timeout_ticks: ELECTION_MIN_TICKS,
        }
    }

    /// Entries past the compacted prefix.
    fn log_len(&self) -> usize {
        self.applied - self.base_len
    }

    /// Compacts the log once it grows past the trigger.
    fn maybe_compact(&mut self) {
        if self.log_len() >= COMPACT_TRIGGER {
            self.base_len = self.applied;
        }
    }
}

/// A deterministic replicated meta group of `n` replicas.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaGroup {
    seed: u64,
    nodes: Vec<MetaNode>,
    /// The fold of every committed command, applied once at commit.
    state: MetaState,
    leader: Option<usize>,
    tick: u64,
    stats: GroupStats,
}

impl MetaGroup {
    /// A fresh group with all replicas alive and no leader elected yet;
    /// the first [`MetaGroup::submit`] (or enough ticks) elects one.
    pub fn new(num_nodes: usize, seed: u64) -> Self {
        assert!(num_nodes >= 1, "meta group needs at least one replica");
        let mut g = MetaGroup {
            seed,
            nodes: (0..num_nodes).map(|_| MetaNode::fresh(0)).collect(),
            state: MetaState::new(),
            leader: None,
            tick: 0,
            stats: GroupStats::default(),
        };
        for m in 0..num_nodes {
            g.nodes[m].timeout_ticks = g.timeout_for(m, 0);
        }
        g
    }

    /// Seed-randomized election timeout for `node` at `epoch`.
    fn timeout_for(&self, node: usize, epoch: u64) -> u64 {
        let h = splitmix64(
            self.seed
                ^ (node as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f)
                ^ (epoch + 1).wrapping_mul(0xe703_7ed1_a0b4_28db),
        );
        ELECTION_MIN_TICKS + h % ELECTION_SPREAD_TICKS
    }

    /// Replicas, total.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Majority threshold: `n/2 + 1` of all replicas, dead or alive.
    pub fn quorum(&self) -> usize {
        self.nodes.len() / 2 + 1
    }

    /// The current leader, if one is elected, alive, and connected.
    pub fn leader(&self) -> Option<usize> {
        self.leader
            .filter(|&l| self.nodes[l].alive && !self.nodes[l].isolated)
    }

    /// Highest epoch any live replica holds.
    pub fn epoch(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| n.epoch)
            .max()
            .unwrap_or(0)
    }

    /// Replication counters so far.
    pub fn stats(&self) -> GroupStats {
        self.stats
    }

    /// Committed entries replica `m` holds: its position in the log.
    pub fn applied_of(&self, m: usize) -> usize {
        self.nodes[m].applied
    }

    /// Whether replica `m` takes part in a round led by `via`: `via` itself
    /// and every peer it exchanges messages with.
    fn in_round(&self, via: usize, m: usize) -> bool {
        m == via || (self.nodes[m].alive && !self.nodes[m].isolated && !self.nodes[via].isolated)
    }

    /// Runs `f` over the committed state. Every committed entry is on a
    /// majority of replicas, so this read is linearizable with respect to
    /// committed commands.
    pub fn read<R>(&self, f: impl FnOnce(&MetaState) -> R) -> R {
        f(&self.state)
    }

    /// Advances logical time to nominal trace time `now`, running
    /// heartbeats and timeout-triggered elections along the way.
    /// Non-finite or past times are no-ops.
    ///
    /// Ticks are stepped one at a time only while there is no leader. With
    /// a leader up nothing but its heartbeats happens, and the first of
    /// them catches every connected follower up while each later one only
    /// restamps them, so only the last heartbeat at or before `now` is run.
    /// The cost is bounded by elections, not by how far `now` lies ahead.
    pub fn advance_to(&mut self, now: f64) {
        if !now.is_finite() {
            return;
        }
        let target = (now / TICK_SECS).floor() as u64;
        while self.tick < target {
            if self.leader().is_some() {
                let last = target - target % HEARTBEAT_TICKS;
                if last > self.tick {
                    self.tick = last;
                    self.step_tick();
                }
                self.tick = target;
            } else {
                self.tick += 1;
                self.step_tick();
            }
        }
    }

    fn step_tick(&mut self) {
        // Leader side: heartbeat + catch-up for lagging followers.
        if let Some(l) = self.leader() {
            if self.tick.is_multiple_of(HEARTBEAT_TICKS) {
                for m in 0..self.nodes.len() {
                    if m == l || !self.nodes[m].alive || self.nodes[m].isolated {
                        continue;
                    }
                    self.catch_up(l, m);
                    self.nodes[m].last_heartbeat_tick = self.tick;
                }
            }
            return;
        }
        // No reachable leader: followers count down their seeded timeouts;
        // the first to fire (node-id order breaks ties) stands for election.
        for m in 0..self.nodes.len() {
            let n = &self.nodes[m];
            if !n.alive || n.isolated || n.believes_leader {
                continue;
            }
            if self.tick.saturating_sub(n.last_heartbeat_tick) >= n.timeout_ticks {
                if self.run_election(m) {
                    return;
                }
                // Lost: re-randomize this epoch's timeout and keep waiting.
                let timeout = self.timeout_for(m, self.nodes[m].epoch);
                self.nodes[m].timeout_ticks = timeout;
                self.nodes[m].last_heartbeat_tick = self.tick;
            }
        }
    }

    /// Candidate `c` stands at epoch `c.epoch + 1`; voters grant when the
    /// candidate's epoch is new to them and its log is at least as
    /// caught-up as theirs. A majority of the *full* group size wins.
    fn run_election(&mut self, c: usize) -> bool {
        let new_epoch = self.nodes[c].epoch + 1;
        self.nodes[c].epoch = new_epoch;
        let mut votes = 1usize; // self-vote
        for m in 0..self.nodes.len() {
            if m == c || !self.nodes[m].alive || self.nodes[m].isolated || self.nodes[c].isolated {
                continue;
            }
            if new_epoch > self.nodes[m].epoch && self.nodes[c].applied >= self.nodes[m].applied {
                votes += 1;
            }
        }
        if votes < self.quorum() {
            self.stats.failed_elections += 1;
            return false;
        }
        // Won: every reachable replica adopts the epoch; the old leader
        // (if reachable) steps down. An isolated old leader keeps its
        // stale belief — that is exactly what epoch fencing exists for.
        for m in 0..self.nodes.len() {
            if !self.nodes[m].alive || self.nodes[m].isolated {
                continue;
            }
            self.nodes[m].epoch = new_epoch;
            self.nodes[m].believes_leader = m == c;
            self.nodes[m].last_heartbeat_tick = self.tick;
            self.nodes[m].timeout_ticks = self.timeout_for(m, new_epoch);
        }
        self.leader = Some(c);
        self.stats.elections += 1;
        true
    }

    /// Brings follower `m` up to the leader `l`'s position: a follower
    /// that fell behind the leader's compacted prefix installs that prefix
    /// and the leader's log; one that is merely short appends the missing
    /// suffix to its own log.
    fn catch_up(&mut self, l: usize, m: usize) {
        let leader = self.nodes[l];
        let n = &mut self.nodes[m];
        n.epoch = leader.epoch;
        if n.applied >= leader.applied {
            return;
        }
        if n.applied < leader.base_len {
            self.stats.snapshot_installs += 1;
            self.stats.replayed_entries += leader.log_len() as u64;
            n.base_len = leader.base_len;
        }
        n.applied = leader.applied;
        n.maybe_compact();
    }

    /// Ensures a reachable leader exists, driving logical ticks until an
    /// election concludes if necessary. Elections therefore finish "inside"
    /// the submit that needed them — trace time does not advance, so
    /// failover never perturbs serving decisions.
    pub fn ensure_leader(&mut self) -> Result<usize, MetaError> {
        if let Some(l) = self.leader() {
            return Ok(l);
        }
        for _ in 0..MAX_DRIVE_TICKS {
            self.tick += 1;
            self.step_tick();
            if let Some(l) = self.leader() {
                return Ok(l);
            }
        }
        Err(MetaError::NoQuorum)
    }

    /// Forces an election restricted to candidates `allowed` deems
    /// acceptable (the client passes "reachable from me"); picks the
    /// most-caught-up such replica, lowest id first. Returns the new
    /// leader, or `None` when no allowed candidate can win.
    pub fn force_election(&mut self, allowed: impl Fn(usize) -> bool) -> Option<usize> {
        let candidate = (0..self.nodes.len())
            .filter(|&m| self.nodes[m].alive && !self.nodes[m].isolated && allowed(m))
            .max_by_key(|&m| (self.nodes[m].applied, usize::MAX - m))?;
        if self.leader() == Some(candidate) {
            return Some(candidate);
        }
        if self.run_election(candidate) {
            Some(candidate)
        } else {
            None
        }
    }

    /// Appends `cmd` through replica `via`, which must believe it is the
    /// leader. This is the full replication round: every reachable replica
    /// is first checked for a higher epoch (fencing), then caught up and
    /// handed the entry; the entry commits only with a majority of acks.
    ///
    /// # Errors
    ///
    /// [`MetaError::NodeDown`] / [`MetaError::NotLeader`] redirect the
    /// client; [`MetaError::Fenced`] means `via` was deposed — the entry
    /// was rejected before reaching any log, and `via` steps down.
    /// [`MetaError::NoQuorum`] means too few replicas acknowledged.
    pub fn try_append_via(&mut self, via: usize, cmd: &MetaCommand) -> Result<Receipt, MetaError> {
        if !self.nodes[via].alive {
            return Err(MetaError::NodeDown(via));
        }
        if !self.nodes[via].believes_leader {
            return Err(MetaError::NotLeader {
                current: self.leader(),
            });
        }
        let epoch = self.nodes[via].epoch;
        let n = self.nodes.len();
        // Epoch fencing: any reachable replica at a strictly higher epoch
        // proves `via` was deposed. Reject before touching any log.
        if let Some(w) = (0..n).find(|&m| self.in_round(via, m) && self.nodes[m].epoch > epoch) {
            let current_epoch = self.nodes[w].epoch;
            self.nodes[via].believes_leader = false;
            self.nodes[via].epoch = current_epoch;
            if self.leader == Some(via) {
                self.leader = None;
            }
            self.stats.fenced_appends += 1;
            return Err(MetaError::Fenced {
                stale_epoch: epoch,
                current_epoch,
            });
        }
        if (0..n).filter(|&m| self.in_round(via, m)).count() < self.quorum() {
            return Err(MetaError::NoQuorum);
        }
        // Catch every reachable follower up, then replicate the new entry.
        for m in 0..n {
            if m != via && self.in_round(via, m) {
                self.catch_up(via, m);
            }
        }
        let index = self.nodes[via].applied;
        for m in 0..n {
            if self.in_round(via, m) {
                self.nodes[m].applied += 1;
                self.nodes[m].maybe_compact();
            }
        }
        self.state.apply(cmd);
        self.stats.committed += 1;
        Ok(Receipt { epoch, index })
    }

    /// Commits `cmd` through the current leader, electing one first if
    /// needed.
    ///
    /// # Errors
    ///
    /// [`MetaError::NoQuorum`] when the group cannot elect or commit.
    pub fn submit(&mut self, cmd: &MetaCommand) -> Result<Receipt, MetaError> {
        for _ in 0..self.nodes.len() + 1 {
            let l = self.ensure_leader()?;
            match self.try_append_via(l, cmd) {
                Ok(r) => return Ok(r),
                Err(MetaError::Fenced { .. })
                | Err(MetaError::NotLeader { .. })
                | Err(MetaError::NodeDown(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(MetaError::NoQuorum)
    }

    /// Kills replica `m`: its log is lost. If it led, the group has no
    /// leader until an election concludes.
    pub fn crash(&mut self, m: usize) {
        assert!(self.nodes[m].alive, "meta replica {m} crashed while down");
        self.nodes[m].alive = false;
        self.nodes[m].believes_leader = false;
        if self.leader == Some(m) {
            self.leader = None;
        }
    }

    /// Rejoins replica `m` empty at epoch 0; the next heartbeat or commit
    /// catches it up by install or suffix replay.
    pub fn restart(&mut self, m: usize) {
        assert!(!self.nodes[m].alive, "meta replica {m} restarted while up");
        self.nodes[m] = MetaNode::fresh(self.tick);
        self.nodes[m].timeout_ticks = self.timeout_for(m, 0);
    }

    /// Cuts replica `m` off from its peers (it stays alive and keeps its
    /// beliefs — including, if it led, that it still leads).
    pub fn isolate(&mut self, m: usize) {
        self.nodes[m].isolated = true;
    }

    /// Reconnects replica `m`; it will adopt the current epoch at the next
    /// heartbeat and catch up on anything it missed.
    pub fn reconnect(&mut self, m: usize) {
        self.nodes[m].isolated = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_types::UserId;

    fn reg(i: u64) -> MetaCommand {
        MetaCommand::RegisterEntry {
            key: UserId::new(i).into(),
            bytes: 10,
        }
    }

    #[test]
    fn first_submit_elects_a_leader_and_commits() {
        let mut g = MetaGroup::new(3, 42);
        assert_eq!(g.leader(), None);
        let r = g.submit(&reg(1)).unwrap();
        assert!(g.leader().is_some());
        assert!(r.epoch >= 1);
        assert_eq!(r.index, 0);
        assert_eq!(g.stats().elections, 1);
        assert!(g.read(|s| s.contains(UserId::new(1).into())));
        // All three replicas hold the entry (majority means all here).
        for m in 0..3 {
            assert_eq!(g.applied_of(m), 1);
        }
    }

    #[test]
    fn seeded_elections_are_deterministic() {
        let run = |seed| {
            let mut g = MetaGroup::new(5, seed);
            let mut log = Vec::new();
            for i in 0..20 {
                let r = g.submit(&reg(i)).unwrap();
                log.push((r.epoch, r.index));
                if i == 7 {
                    let l = g.leader().unwrap();
                    g.crash(l);
                }
                g.advance_to(i as f64);
            }
            (log, g.epoch(), g.stats())
        };
        assert_eq!(run(7), run(7));
        // A different seed elects along a different timeout landscape but
        // still commits everything.
        let (log_a, ..) = run(7);
        let (log_b, ..) = run(8);
        assert_eq!(log_a.len(), log_b.len());
    }

    #[test]
    fn leader_crash_fails_over_to_higher_epoch() {
        let mut g = MetaGroup::new(3, 1);
        g.submit(&reg(1)).unwrap();
        let old_leader = g.leader().unwrap();
        let old_epoch = g.epoch();
        g.crash(old_leader);
        // Next submit drives the election internally and still commits.
        let r = g.submit(&reg(2)).unwrap();
        let new_leader = g.leader().unwrap();
        assert_ne!(new_leader, old_leader);
        assert!(g.epoch() > old_epoch, "new leader holds a higher epoch");
        assert_eq!(r.epoch, g.epoch());
        assert!(g.read(|s| s.contains(UserId::new(2).into())));
        assert_eq!(g.stats().elections, 2);
    }

    #[test]
    fn timeout_driven_election_fires_without_a_submit() {
        let mut g = MetaGroup::new(3, 3);
        g.submit(&reg(1)).unwrap();
        let l = g.leader().unwrap();
        g.crash(l);
        // Advance nominal time: followers time out and elect on their own.
        g.advance_to(5.0);
        assert!(g.leader().is_some());
        assert_ne!(g.leader().unwrap(), l);
    }

    #[test]
    fn fenced_stale_leader_write_is_never_applied() {
        let mut g = MetaGroup::new(3, 11);
        g.submit(&reg(1)).unwrap();
        let old = g.leader().unwrap();
        let old_epoch = g.epoch();

        // Isolate the leader: it keeps believing it leads while the
        // survivors elect a successor at a higher epoch.
        g.isolate(old);
        g.leader = None; // clients stopped reaching it
        let new = g.ensure_leader().unwrap();
        assert_ne!(new, old);
        assert!(g.epoch() > old_epoch);

        // The deposed leader reconnects and tries to append: fenced.
        g.reconnect(old);
        let committed = g.stats().committed;
        let applied: Vec<usize> = (0..3).map(|m| g.applied_of(m)).collect();
        let err = g.try_append_via(old, &reg(99)).unwrap_err();
        assert!(
            matches!(err, MetaError::Fenced { stale_epoch, current_epoch }
            if stale_epoch == old_epoch && current_epoch > old_epoch)
        );
        assert_eq!(g.stats().fenced_appends, 1);
        // The stale write was neither committed nor logged anywhere.
        assert!(!g.read(|s| s.contains(UserId::new(99).into())));
        assert_eq!(g.stats().committed, committed);
        for (m, &before) in applied.iter().enumerate() {
            assert_eq!(g.applied_of(m), before, "stale write reached replica {m}");
        }
        // The deposed leader redirects clients from now on.
        assert!(matches!(
            g.try_append_via(old, &reg(99)).unwrap_err(),
            MetaError::NotLeader { .. }
        ));
    }

    #[test]
    fn rejoining_replica_catches_up_via_snapshot_and_replay() {
        let mut g = MetaGroup::new(3, 5);
        g.submit(&reg(0)).unwrap();
        let victim = (g.leader().unwrap() + 1) % 3; // a follower
        g.crash(victim);
        // Push well past the compaction trigger so the survivors' logs
        // compact and the rejoiner must take a snapshot, not just a suffix.
        for i in 1..(COMPACT_TRIGGER as u64 * 2 + 10) {
            g.submit(&reg(i)).unwrap();
        }
        g.restart(victim);
        assert_eq!(g.applied_of(victim), 0, "a restart loses the log");
        g.submit(&reg(9999)).unwrap();
        assert_eq!(g.stats().snapshot_installs, 1, "snapshot path exercised");
        assert_eq!(g.stats().replayed_entries, 10, "the leader's live log");
        let commits = g.stats().committed as usize;
        for m in 0..3 {
            assert_eq!(g.applied_of(m), commits, "replica {m} converged");
        }
        // Down and back before the next commit: one more install.
        g.crash(victim);
        g.restart(victim);
        g.submit(&reg(10_000)).unwrap();
        assert_eq!(g.stats().snapshot_installs, 2);
        assert_eq!(g.applied_of(victim), commits + 1);
        assert_eq!(g.read(|s| s.num_entries()), commits + 1);
    }

    /// Logical time one tick at a time: where [`MetaGroup::advance_to`]
    /// must land, however far it jumps.
    fn step_to(g: &mut MetaGroup, now: f64) {
        let target = (now / TICK_SECS).floor() as u64;
        while g.tick < target {
            g.tick += 1;
            g.step_tick();
        }
    }

    #[test]
    fn advancing_jumps_to_where_stepping_every_tick_lands() {
        let run = |advance: fn(&mut MetaGroup, f64)| {
            let mut g = MetaGroup::new(5, 17);
            let (mut now, mut seen) = (0.0, Vec::new());
            let (mut first, mut second) = (0, 0);
            for i in 0..3 * COMPACT_TRIGGER {
                g.submit(&reg(i as u64)).unwrap();
                match i {
                    5 => {
                        first = g.leader().unwrap();
                        g.crash(first);
                    }
                    20 => {
                        second = (first + 1) % 5;
                        g.crash(second);
                    }
                    // Restarts just before long idle stretches: the jump
                    // itself must catch the rejoiner up.
                    91 => g.restart(first),
                    100 => g.isolate(first),
                    120 => g.reconnect(first),
                    154 => g.restart(second),
                    _ => {}
                }
                // Mostly short steps; every few commits a long idle stretch.
                now += if i % 7 == 0 { 40.0 + i as f64 } else { 0.013 };
                advance(&mut g, now);
                seen.push(g.clone());
            }
            assert!(g.stats().elections >= 2 && g.stats().snapshot_installs >= 1);
            seen
        };
        assert!(run(MetaGroup::advance_to) == run(step_to));
    }

    #[test]
    fn force_election_moves_leadership_to_an_allowed_replica() {
        let mut g = MetaGroup::new(3, 2);
        g.submit(&reg(1)).unwrap();
        let old = g.leader().unwrap();
        let allowed = move |m: usize| m != old;
        let new = g.force_election(allowed).unwrap();
        assert_ne!(new, old);
        assert_eq!(g.leader(), Some(new));
        // The old leader learned about the new epoch (it was reachable),
        // so it redirects rather than fences.
        assert!(matches!(
            g.try_append_via(old, &reg(2)).unwrap_err(),
            MetaError::NotLeader { current: Some(l) } if l == new
        ));
    }

    #[test]
    fn single_replica_group_degenerates_gracefully() {
        let mut g = MetaGroup::new(1, 0);
        assert_eq!(g.quorum(), 1);
        g.submit(&reg(1)).unwrap();
        assert_eq!(g.leader(), Some(0));
        assert!(g.read(|s| s.contains(UserId::new(1).into())));
    }

    #[test]
    fn no_quorum_is_reported_not_hung() {
        let mut g = MetaGroup::new(3, 0);
        g.submit(&reg(1)).unwrap();
        // Unvalidated direct crashes may kill the majority; the group must
        // fail fast instead of spinning.
        let l = g.leader().unwrap();
        g.crash(l);
        g.crash((l + 1) % 3);
        assert_eq!(g.submit(&reg(2)).unwrap_err(), MetaError::NoQuorum);
    }
}

#[cfg(test)]
mod oracle_tests {
    //! The group against a single-node oracle under random fault schedules.

    use super::*;
    use crate::command::ViewChange;
    use bat_kvcache::CacheKey;
    use bat_types::{ItemId, UserId};
    use proptest::prelude::*;

    /// One step: an action `(kind, replica, dt, election mask)`, then a
    /// burst of commands `(kind, key, value)`.
    type Step = (u8, usize, f64, u8, Vec<(u8, u64, u64)>);

    fn command((kind, key, val): (u8, u64, u64)) -> MetaCommand {
        let key: CacheKey = if key < 24 {
            UserId::new(key).into()
        } else {
            ItemId::new(key - 24).into()
        };
        match kind {
            0..=3 => MetaCommand::RegisterEntry { key, bytes: val },
            4 | 5 => MetaCommand::Evict { key },
            6..=8 => MetaCommand::HotnessDelta { key, at_ms: val },
            _ if val % 2 == 0 => MetaCommand::View(ViewChange::WorkerCrashed {
                worker: (val / 2 % 4) as usize,
                num_workers: 4,
            }),
            _ => MetaCommand::View(ViewChange::WorkerRestarted { worker: 0 }),
        }
    }

    fn connected(g: &MetaGroup, m: usize) -> bool {
        g.nodes[m].alive && !g.nodes[m].isolated
    }

    /// Whether a quorum and a caught-up replica stay connected once `m`
    /// crashes or is cut off — what a validated schedule guarantees.
    fn may_leave(g: &MetaGroup, m: usize, commits: usize) -> bool {
        let stays = |x: usize| x != m && connected(g, x);
        (0..g.num_nodes()).filter(|&x| stays(x)).count() >= g.quorum()
            && (0..g.num_nodes()).any(|x| stays(x) && g.nodes[x].applied == commits)
    }

    /// Whether one more connected replica may lag. A replica that lost its
    /// log can only win an election on the votes of others that lag too,
    /// so fewer than a quorum may: no committed entry is then lost, which a
    /// validated schedule guarantees by restarting one replica at a time.
    fn may_lag(g: &MetaGroup, commits: usize) -> bool {
        let lagging =
            (0..g.num_nodes()).filter(|&x| connected(g, x) && g.nodes[x].applied < commits);
        lagging.count() + 1 < g.quorum()
    }

    /// The group reads the oracle's state, and the most caught-up connected
    /// replica holds every commit.
    fn check(g: &MetaGroup, oracle: &MetaState, commits: usize) -> Result<(), TestCaseError> {
        let top = (0..g.num_nodes())
            .filter(|&m| connected(g, m))
            .map(|m| g.nodes[m].applied)
            .max();
        prop_assert_eq!(top, Some(commits));
        prop_assert_eq!(g.read(|s| s.digest()), oracle.digest());
        Ok(())
    }

    fn run(n: usize, seed: u64, steps: Vec<Step>) -> Result<(), TestCaseError> {
        let mut g = MetaGroup::new(n, seed);
        let mut oracle = MetaState::new();
        let (mut commits, mut now) = (0usize, 0.0);
        for (action, node, dt, mask, burst) in steps {
            let m = node % n;
            match action {
                0 if g.nodes[m].alive && may_leave(&g, m, commits) => g.crash(m),
                1 if !g.nodes[m].alive && may_lag(&g, commits) => g.restart(m),
                2 if connected(&g, m) && may_leave(&g, m, commits) => g.isolate(m),
                3 if g.nodes[m].isolated && may_lag(&g, commits) => g.reconnect(m),
                4 => {
                    g.force_election(|x| mask >> x & 1 == 1);
                }
                _ => {
                    now += dt;
                    g.advance_to(now);
                }
            }
            if commits > 0 {
                check(&g, &oracle, commits)?;
            }
            for draw in burst {
                let cmd = command(draw);
                let r = g
                    .submit(&cmd)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(r.index, commits);
                oracle.apply(&cmd);
                commits += 1;
                check(&g, &oracle, commits)?;
                // A commit catches every connected replica up: a restarted
                // one converges on the next commit.
                for x in (0..n).filter(|&x| connected(&g, x)) {
                    prop_assert_eq!(g.nodes[x].applied, commits, "replica {}", x);
                }
            }
        }
        prop_assert!(commits >= 200, "only {} commits", commits);
        Ok(())
    }

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        proptest::collection::vec(
            (
                0u8..6,
                0usize..5,
                0.0f64..0.6,
                0u8..32,
                proptest::collection::vec((0u8..10, 0u64..30, 0u64..500), 0..7),
            ),
            80..100,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn three_replicas_match_a_local_meta_index(seed in 0u64..1000, steps in steps()) {
            run(3, seed, steps)?;
        }

        #[test]
        fn five_replicas_match_a_local_meta_index(seed in 0u64..1000, steps in steps()) {
            run(5, seed, steps)?;
        }
    }
}
