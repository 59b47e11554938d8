//! Absolute-deadline pacing of emulated work on the wall clock.
//!
//! The runtime emulates a priced duration by waiting it out. A relative
//! `sleep(priced)` per unit of work costs the kernel's timer slack (about
//! 55 µs on Linux) every time, however small `priced` is, so a worker
//! serving microsecond-priced frames would spend its life in the floor. A
//! [`Pacer`] instead keeps the absolute instant its booked work ends,
//! `busy_until = max(busy_until, now) + priced`, and blocks only once that
//! instant has run more than one `GRANULE` ahead of the wall clock. Many
//! small charges then share one sleep, a sleep that runs long is paid back
//! by the charges queued behind it, and the emulated time is exact in
//! aggregate: the finish instants a pacer hands out never drift from the
//! wall clock by more than a granule plus one oversleep.
//!
//! The granule also bounds how long the scheduler holds a round it has
//! formed before writing it: held rounds go out once the oldest is a
//! granule old, and always before the scheduler blocks (see
//! [`crate::runtime`]).
//!
//! This module is the only place in `bat-serve` and `bat-net` that calls
//! `thread::sleep`; every other wait blocks on a condvar or a channel.

use std::thread;
use std::time::{Duration, Instant};

/// How far booked work may run ahead of the wall clock before the pacer
/// blocks, and how long the scheduler may hold a formed round unwritten.
/// Just above the timer slack, so that a sleep is mostly the time asked
/// for, and far below any duration a run's statistics can resolve at the
/// time scales the runtime is used with.
pub(crate) const GRANULE: Duration = Duration::from_micros(100);

/// `deadline - now` when that is more than a [`GRANULE`], i.e. when it is
/// worth blocking for.
pub(crate) fn lead_at(deadline: Instant, now: Instant) -> Option<Duration> {
    deadline
        .checked_duration_since(now)
        .filter(|lead| *lead > GRANULE)
}

/// [`lead_at`] the wall clock's now.
pub(crate) fn lead_over(deadline: Instant) -> Option<Duration> {
    lead_at(deadline, Instant::now())
}

/// Blocks until `deadline` unless it is within a [`GRANULE`] (or past):
/// the scheduler's open-loop arrival wait (the fault supervisor's wait
/// blocks on [`lead_over`] too), which therefore acts up to a granule early
/// rather than a timer slack late, and takes consecutive deadlines closer
/// than a granule in one go.
pub(crate) fn sleep_until(deadline: Instant) {
    if let Some(lead) = lead_over(deadline) {
        thread::sleep(lead);
    }
}

/// The wall-clock account of one worker's emulated execution.
#[derive(Debug)]
pub struct Pacer {
    /// When the work booked so far ends.
    busy_until: Instant,
    /// How far the last sleep ran past `busy_until`; work that was already
    /// waiting then may start that far in the past.
    oversleep: Duration,
}

impl Default for Pacer {
    fn default() -> Self {
        Self::new()
    }
}

impl Pacer {
    /// A pacer with nothing booked.
    pub fn new() -> Self {
        Pacer {
            busy_until: Instant::now(),
            oversleep: Duration::ZERO,
        }
    }

    /// Books `priced` of work and returns the instant it finishes. Never
    /// blocks; see [`Pacer::catch_up`].
    ///
    /// `backlogged` says the work was already waiting when the previous
    /// charge finished, so it starts at that finish even where a sleep ran
    /// past it. Work that arrived at an idle worker starts now.
    pub fn charge(&mut self, priced: Duration, backlogged: bool) -> Instant {
        let now = Instant::now();
        if !backlogged {
            self.oversleep = Duration::ZERO;
        }
        let earliest = now.checked_sub(self.oversleep).unwrap_or(now);
        self.busy_until = self.busy_until.max(earliest) + priced;
        self.busy_until
    }

    /// Whether [`Pacer::catch_up`] would block. A caller holding results of
    /// earlier charges hands them over first.
    pub fn is_ahead(&self) -> bool {
        lead_over(self.busy_until).is_some()
    }

    /// Blocks until the wall clock reaches the end of the booked work, if
    /// that is more than a `GRANULE` away.
    pub fn catch_up(&mut self) {
        if let Some(lead) = lead_over(self.busy_until) {
            thread::sleep(lead);
            self.oversleep = self.busy_until.elapsed();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_charges_share_sleeps_instead_of_paying_the_floor_each() {
        // 10 000 × 1 µs is 10 ms of priced work. Slept one by one it would
        // take 10 000 timer floors (≥ 0.5 s); paced, the work blocks at
        // most once per granule of it. Both checks below hold however
        // loaded the machine is: a charge that leaves the pacer ahead
        // started at the previous finish, so the pacer can only get a
        // granule ahead again by booking another granule.
        let priced = Duration::from_micros(1);
        let mut pacer = Pacer::new();
        let t0 = Instant::now();
        let mut last = t0;
        let mut sleeps = 0;
        for _ in 0..10_000 {
            let finish = pacer.charge(priced, true);
            assert!(finish >= last + priced, "finish times are monotone");
            if pacer.is_ahead() {
                assert_eq!(finish, last + priced, "booked while ahead");
                sleeps += 1;
            }
            last = finish;
            pacer.catch_up();
        }
        let blocked = t0.elapsed();
        assert!(
            blocked + GRANULE >= Duration::from_millis(10),
            "ran ahead of the priced time: {blocked:?}"
        );
        let most = Duration::from_millis(10).as_nanos() / GRANULE.as_nanos() + 1;
        assert!(
            sleeps <= most,
            "10 ms of priced work blocked {sleeps} times"
        );
    }

    #[test]
    fn a_charge_above_the_granule_blocks_at_least_that_long() {
        let priced = 5 * GRANULE;
        let mut pacer = Pacer::new();
        let t0 = Instant::now();
        let finish = pacer.charge(priced, false);
        assert!(pacer.is_ahead());
        pacer.catch_up();
        assert!(t0.elapsed() >= priced);
        assert!(finish >= t0 + priced);
        assert!(!pacer.is_ahead());
    }

    #[test]
    fn idle_work_starts_now_and_backlogged_work_recovers_an_oversleep() {
        let mut pacer = Pacer::new();
        pacer.charge(2 * GRANULE, false);
        pacer.catch_up();
        let end = pacer.busy_until;
        // Backlogged: starts at the previous finish although the sleep ran
        // past it (never earlier).
        let next = pacer.charge(GRANULE, true);
        assert!(next >= end + GRANULE);
        assert!(next <= Instant::now() + GRANULE);
        // Idle: a charge long after the last one starts at `now`.
        thread::sleep(3 * GRANULE);
        let before = Instant::now();
        assert!(pacer.charge(GRANULE, false) >= before + GRANULE);
    }

    #[test]
    fn sleep_until_blocks_only_for_deadlines_beyond_a_granule() {
        // `sleep_until` blocks for `lead_over` and only when it is `Some`.
        // The clock only moves on, so a deadline within a granule of `t0`
        // is never worth blocking for, however late these lines run.
        let t0 = Instant::now();
        for within in [t0, t0 + GRANULE / 2, t0 + GRANULE] {
            assert_eq!(lead_over(within), None);
        }
        assert_eq!(lead_at(t0 + GRANULE, t0), None);
        assert_eq!(lead_at(t0 + 4 * GRANULE, t0), Some(4 * GRANULE));
        assert_eq!(lead_at(t0, t0 + GRANULE), None, "a deadline past");
        let deadline = Instant::now() + 4 * GRANULE;
        sleep_until(deadline);
        assert!(Instant::now() >= deadline);
    }
}
