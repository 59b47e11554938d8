//! Request trace generation.
//!
//! §6.2: "We randomly sample the users with replacement from the history log
//! of each dataset... and randomly sample the intervals between consecutive
//! accesses to simulate realistic request patterns." We realize this as an
//! open-loop Poisson process at a configurable aggregate rate whose per-
//! request user is drawn from the dataset's activity law — so each user's
//! own arrival process is Poisson with rate proportional to their activity
//! weight, which yields both the skewed hourly access CDF of Figure 2c and
//! the window-frequency self-similarity of Figure 4.

use crate::workload::{ItemMemo, Workload};
use bat_types::{RankRequest, RequestId, SimTime, SloBudget, UserId};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::collections::HashMap;

/// Generates request traces from a [`Workload`].
///
/// ```
/// use bat_types::DatasetConfig;
/// use bat_workload::{TraceGenerator, Workload};
///
/// let mut gen = TraceGenerator::new(Workload::new(DatasetConfig::games(), 1), 2);
/// let trace = gen.generate(10.0, 20.0);
/// assert!(!trace.is_empty());
/// assert!(trace.windows(2).all(|w| w[1].arrival >= w[0].arrival));
/// ```
#[derive(Debug)]
pub struct TraceGenerator {
    workload: Workload,
    rng: SmallRng,
    next_id: u64,
    now: f64,
    slo: SloBudget,
    memo: ItemMemo,
}

impl TraceGenerator {
    /// Creates a generator; the trace stream is deterministic in
    /// `(workload seed, trace seed)`.
    pub fn new(workload: Workload, trace_seed: u64) -> Self {
        TraceGenerator {
            rng: SmallRng::seed_from_u64(trace_seed),
            memo: ItemMemo::new(workload.dataset().num_items),
            workload,
            next_id: 0,
            now: 0.0,
            slo: SloBudget::default(),
        }
    }

    /// Sets the [`SloBudget`] stamped on every subsequently generated
    /// request (default: best-effort). Stamping happens at generation time,
    /// so a burst segment can carry a different budget than the warm-up.
    pub fn set_slo(&mut self, slo: SloBudget) {
        self.slo = slo;
    }

    /// The bound workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Builds the next request for a *given* user at an explicit arrival
    /// time (session replay drives this).
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the current clock.
    pub fn request_for(&mut self, user: bat_types::UserId, at: f64) -> RankRequest {
        assert!(at >= self.now, "trace clock must be monotone");
        self.now = at;
        let ds = self.workload.dataset();
        let (candidates, candidate_tokens) = self.workload.retrieve_candidates_at(
            ds.candidates_per_request as usize,
            at,
            &mut || self.rng.gen::<f64>(),
            &mut self.memo,
        );
        let req = RankRequest {
            id: RequestId::new(self.next_id),
            user,
            user_tokens: self.workload.user_token_count(user),
            candidates,
            candidate_tokens,
            instruction_tokens: Workload::INSTRUCTION_TOKENS,
            arrival: SimTime::from_secs(at),
            slo: self.slo,
        };
        self.next_id += 1;
        req
    }

    /// Generates an open-loop trace at an aggregate `rate_per_sec`, with
    /// the dataset's session structure (§6.2's "randomly sample the
    /// intervals between consecutive accesses"): session starts are Poisson
    /// at `rate / session_mean_requests`, each session replays a geometric
    /// number of requests with exponential intra-session gaps. With
    /// `session_mean_requests <= 1` this degenerates to plain Poisson
    /// arrivals.
    ///
    /// # Panics
    ///
    /// Panics if the rate or duration is not positive.
    pub fn generate(&mut self, duration_secs: f64, rate_per_sec: f64) -> Vec<RankRequest> {
        assert!(rate_per_sec > 0.0, "rate must be positive");
        assert!(duration_secs > 0.0, "duration must be positive");
        let ds = self.workload.dataset();
        let params = SessionParams {
            mean_requests: ds.session_mean_requests.max(1.0),
            mean_gap_secs: ds.session_mean_gap_secs.max(1e-6),
        };
        let session_rate = rate_per_sec / params.mean_requests;
        let end = self.now + duration_secs;
        // Materialize requests in arrival order, truncating session
        // spillover at the horizon so the trace occupies exactly
        // [start, end) — saturation measurements depend on a dense span.
        let events = self.session_arrivals(duration_secs, session_rate, params, end);
        let mut out = Vec::with_capacity(events.len());
        for (at, user) in events {
            out.push(self.request_for(user, at));
        }
        self.now = end;
        out
    }
}

/// Parameters of the session-structured arrival process (§5.3's burst
/// model: "if a user intends to purchase a specific item, they are likely
/// to repeat a search within a few minutes of the initial query").
#[derive(Debug, Clone, Copy)]
pub struct SessionParams {
    /// Mean requests per session (geometric).
    pub mean_requests: f64,
    /// Mean gap between a session's consecutive requests, seconds.
    pub mean_gap_secs: f64,
}

impl Default for SessionParams {
    fn default() -> Self {
        SessionParams {
            mean_requests: 10.0,
            mean_gap_secs: 40.0,
        }
    }
}

impl TraceGenerator {
    /// Generates session-structured `(arrival_secs, user)` events without
    /// materializing candidate sets — the lightweight input of the Figure 4
    /// and Figure 2c analyses. Session starts are Poisson at
    /// `session_rate_per_sec` with users drawn from the activity law; each
    /// session issues a geometric number of requests with exponential
    /// intra-session gaps.
    ///
    /// # Panics
    ///
    /// Panics if the rate or duration is not positive.
    pub fn generate_session_arrivals(
        &mut self,
        duration_secs: f64,
        session_rate_per_sec: f64,
        params: SessionParams,
    ) -> Vec<(f64, UserId)> {
        let end = self.now + duration_secs;
        let events =
            self.session_arrivals(duration_secs, session_rate_per_sec, params, f64::INFINITY);
        self.now = events.last().map_or(end, |&(t, _)| t.max(end));
        events
    }

    /// [`Self::generate_session_arrivals`]' events before `keep_before`,
    /// sorted, leaving the clock alone. Every session still draws all of
    /// its requests, so the stream is the same whatever is kept; and a
    /// stable sort of the kept events orders them as sorting all of them
    /// would.
    fn session_arrivals(
        &mut self,
        duration_secs: f64,
        session_rate_per_sec: f64,
        params: SessionParams,
        keep_before: f64,
    ) -> Vec<(f64, UserId)> {
        assert!(session_rate_per_sec > 0.0, "rate must be positive");
        assert!(duration_secs > 0.0, "duration must be positive");
        let end = self.now + duration_secs;
        let mut events: Vec<(f64, UserId)> = Vec::new();
        let mut t = self.now;
        loop {
            t += -self.rng.gen::<f64>().max(1e-12).ln() / session_rate_per_sec;
            if t >= end {
                break;
            }
            let user = self.workload.sample_user(self.rng.gen::<f64>());
            // Geometric(p) with mean m → p = 1/m. Sessions run to completion
            // (they may spill slightly past `end`), so the aggregate request
            // rate is unbiased: sessions/sec × requests/session.
            let p = (1.0 / params.mean_requests).clamp(1e-6, 1.0);
            let mut at = t;
            loop {
                if at < keep_before {
                    events.push((at, user));
                }
                if self.rng.gen::<f64>() < p {
                    break;
                }
                at += -self.rng.gen::<f64>().max(1e-12).ln() * params.mean_gap_secs;
            }
        }
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        events
    }
}

/// Per-user request counts within fixed windows of `window_secs` — the
/// `f_u(t)` series behind Figure 4 and the Figure 2c hourly CDF.
pub fn window_counts(
    requests: &[RankRequest],
    window_secs: f64,
) -> HashMap<UserId, Vec<(u64, u32)>> {
    window_counts_events(
        requests.iter().map(|r| (r.arrival.as_secs(), r.user)),
        window_secs,
    )
}

/// [`window_counts`] over raw `(arrival_secs, user)` events.
pub fn window_counts_events(
    events: impl IntoIterator<Item = (f64, UserId)>,
    window_secs: f64,
) -> HashMap<UserId, Vec<(u64, u32)>> {
    assert!(window_secs > 0.0, "window must be positive");
    let mut per_user: HashMap<UserId, HashMap<u64, u32>> = HashMap::new();
    for (at, user) in events {
        let w = (at / window_secs) as u64;
        *per_user.entry(user).or_default().entry(w).or_insert(0) += 1;
    }
    per_user
        .into_iter()
        .map(|(u, map)| {
            let mut v: Vec<(u64, u32)> = map.into_iter().collect();
            v.sort_unstable();
            (u, v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_types::DatasetConfig;

    fn gen() -> TraceGenerator {
        TraceGenerator::new(Workload::new(DatasetConfig::games(), 5), 99)
    }

    #[test]
    fn trace_is_deterministic() {
        let a = gen().generate(10.0, 20.0);
        let b = gen().generate(10.0, 20.0);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.first().map(|r| r.user), b.first().map(|r| r.user));
        assert_eq!(a.last().map(|r| r.arrival), b.last().map(|r| r.arrival));
    }

    #[test]
    fn arrival_times_are_monotone_and_bounded() {
        let trace = gen().generate(30.0, 10.0);
        assert!(!trace.is_empty());
        for w in trace.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
        assert!(trace.last().unwrap().arrival.as_secs() < 30.0);
    }

    #[test]
    fn rate_is_approximately_respected_without_sessions() {
        // A session-free dataset (mean 1 request/session) is pure Poisson:
        // the aggregate rate is exact.
        let mut ds = DatasetConfig::games();
        ds.session_mean_requests = 1.0;
        let mut g = TraceGenerator::new(Workload::new(ds, 5), 99);
        let trace = g.generate(200.0, 50.0);
        let rate = trace.len() as f64 / 200.0;
        assert!(
            (rate - 50.0).abs() < 5.0,
            "empirical rate {rate}, expected ≈50"
        );
    }

    #[test]
    fn session_truncation_costs_bounded_rate() {
        // Session datasets lose the spillover tail to truncation; the loss
        // is bounded by mean session span over duration.
        let trace = gen().generate(600.0, 50.0);
        let rate = trace.len() as f64 / 600.0;
        assert!(rate > 30.0 && rate <= 55.0, "rate {rate} out of range");
        assert!(trace.last().unwrap().arrival.as_secs() < 600.0);
    }

    #[test]
    fn requests_validate_and_have_full_candidate_sets() {
        let trace = gen().generate(5.0, 20.0);
        for r in &trace {
            r.validate().unwrap();
            assert_eq!(r.candidates.len(), 100);
            assert!(r.user_tokens >= Workload::MIN_USER_TOKENS);
        }
        // Request IDs are unique and dense.
        let mut ids: Vec<u64> = trace.iter().map(|r| r.id.as_u64()).collect();
        ids.dedup();
        assert_eq!(ids.len(), trace.len());
    }

    #[test]
    fn hot_users_recur_across_the_trace() {
        // Games has a small, high-frequency user base (Table 1/§6.2): the
        // most active users must appear many times.
        let trace = gen().generate(60.0, 50.0);
        let mut counts: HashMap<UserId, u32> = HashMap::new();
        for r in &trace {
            *counts.entry(r.user).or_insert(0) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max >= 5, "hottest user appeared only {max} times");
    }

    #[test]
    fn window_counts_partition_the_trace() {
        let trace = gen().generate(40.0, 25.0);
        let windows = window_counts(&trace, 10.0);
        let total: u32 = windows
            .values()
            .flat_map(|v| v.iter().map(|&(_, c)| c))
            .sum();
        assert_eq!(total as usize, trace.len());
        for series in windows.values() {
            for w in series.windows(2) {
                assert!(w[1].0 > w[0].0, "window indices strictly increase");
            }
        }
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn clock_cannot_go_backwards() {
        let mut g = gen();
        g.request_for(UserId::new(0), 5.0);
        g.request_for(UserId::new(0), 4.0);
    }

    #[test]
    fn session_arrivals_are_sorted_bursty_and_bounded() {
        let mut g = gen();
        let events = g.generate_session_arrivals(600.0, 0.5, SessionParams::default());
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(w[1].0 >= w[0].0);
        }
        // Every *session* starts before the horizon.
        assert!(events.iter().any(|&(t, _)| t < 600.0));
        // Sessions make per-user request counts exceed 1 for many users.
        let per_user = window_counts_events(events.iter().copied(), 600.0);
        let multi = per_user
            .values()
            .filter(|v| v.iter().map(|&(_, c)| c).sum::<u32>() > 3)
            .count();
        assert!(multi > 0, "sessions should produce multi-request users");
    }

    #[test]
    fn window_counts_events_matches_request_version() {
        let trace = gen().generate(30.0, 20.0);
        let a = window_counts(&trace, 10.0);
        let b = window_counts_events(trace.iter().map(|r| (r.arrival.as_secs(), r.user)), 10.0);
        assert_eq!(a, b);
    }
}
