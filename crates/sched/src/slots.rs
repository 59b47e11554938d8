//! Continuous cross-request batching: a slot-based, nominal-time batch
//! scheduler shared verbatim by `bat-sim` and `bat-serve`, and the one
//! executor behind every serving run. Iteration-level scheduling in the
//! style of vLLM / xGR:
//!
//! * Every worker owns a fixed number of **seats**
//!   ([`BatchingConfig::slots_per_worker`]). A seated request contributes
//!   one **chunk** (up to [`BatchingConfig::chunk_tokens`] tokens) to each
//!   of the worker's **rounds**; one round fuses one chunk from every
//!   seated request under a single batch overhead.
//! * Requests wait in one **global FIFO**, not per-worker queues. The
//!   moment any request retires its last chunk, its seat is refilled from
//!   the global queue *at that same round boundary* — the worker never
//!   idles between requests while work is pending, and load imbalance
//!   cannot strand work behind a busy worker.
//! * Seats fill only while the round's tokens fit the round budget
//!   ([`BatchScheduler::with_round_budget`], §5.1's max-batched-tokens); a
//!   head that does not fit waits for the next boundary, and a round of one
//!   request may exceed the budget. Per-request batching is the point
//!   [`BatchingConfig::PER_REQUEST`] of this machine (see [`crate::batch`]).
//! * Chunks inherit their request's `SloBudget`: a request whose deadline
//!   expires while waiting in the global queue is shed at the next seating
//!   attempt, so the conservation law `submitted == completed + shed +
//!   rejected` holds.
//!
//! **Determinism rule.** The scheduler is a pure state machine over
//! *nominal* times: admissions carry trace arrival timestamps, round
//! finish times are computed from priced service costs, and the internal
//! event heap is keyed on `(nanoseconds, worker, generation)`. Neither
//! engine feeds it a wall-clock reading, so the simulator and the threaded
//! runtime form bit-identical batches — the round/chunk/refill counters are
//! folded into `RunStats::digest` and pinned across engines and thread
//! counts by the integration suite.
//!
//! Each chunk costs its request's priced service scaled by the chunk's
//! token share, and a round costs `(batch_overhead + Σ chunk costs) ×
//! straggler_factor(worker)` — so batching amortizes the fixed overhead
//! over every seated request instead of paying it per request.
//!
//! **Constant space.** A round costs O(seats) and, once the buffers have
//! grown, no heap traffic. A round in flight stores no chunk list: nothing
//! seats or unseats on its worker until it retires, so retirement
//! recomputes each chunk from the seats and retires them in place. The
//! [`RoundRecord::requests`] vectors are recycled:
//! [`BatchScheduler::drain_rounds_into`] takes back the vectors of the
//! records it clears, and the next rounds reuse them
//! ([`BatchScheduler::drain_rounds`] hands its vectors out for good). Past the last arrival, [`BatchScheduler::retire_next`] retires one
//! finish event at a time, so a caller can drain the tail as it forms
//! instead of holding [`BatchScheduler::finish`]'s whole log;
//! `tests/rounds_allocate_nothing.rs` pins zero allocations per round.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use bat_metrics::BatchStats;

/// Configuration of the slot-based continuous batch scheduler.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BatchingConfig {
    /// Seats per worker: the maximum number of requests fused into one
    /// round. More seats amortize the batch overhead further but grow the
    /// per-round latency of every seated request.
    pub slots_per_worker: usize,
    /// Maximum tokens a seated request contributes per round. Smaller
    /// chunks interleave requests more finely (lower head-of-line
    /// blocking) at the cost of more rounds.
    pub chunk_tokens: u64,
}

impl Default for BatchingConfig {
    fn default() -> Self {
        BatchingConfig {
            slots_per_worker: 4,
            chunk_tokens: 64,
        }
    }
}

impl BatchingConfig {
    /// Validates positivity of both knobs.
    ///
    /// # Errors
    ///
    /// Returns [`bat_types::BatError::InvalidConfig`] naming the violated
    /// constraint.
    pub fn validate(&self) -> Result<(), bat_types::BatError> {
        let invalid = |msg: &str| Err(bat_types::BatError::InvalidConfig(msg.to_owned()));
        if self.slots_per_worker == 0 {
            return invalid("batching slots_per_worker must be >= 1");
        }
        if self.chunk_tokens == 0 {
            return invalid("batching chunk_tokens must be >= 1");
        }
        Ok(())
    }
}

/// One fused round the scheduler started: the unit the serving runtime
/// physically dispatches to a worker thread/process.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Monotone round sequence number (dispatch/ack correlation key).
    pub seq: u64,
    /// Worker the round runs on.
    pub worker: usize,
    /// Nominal start time, seconds.
    pub start: f64,
    /// Nominal finish time, seconds.
    pub finish: f64,
    /// Priced round service (overhead + chunks, straggler-scaled), seconds.
    pub service_secs: f64,
    /// Tokens fused into the round.
    pub tokens: u64,
    /// Trace indices of the requests contributing a chunk, in seat order.
    pub requests: Vec<usize>,
}

/// A request that retired its final chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchCompletion {
    /// Trace index of the request.
    pub idx: usize,
    /// Nominal completion time, seconds.
    pub at: f64,
}

/// A request shed from the global queue (deadline expired before it could
/// be seated, or no live worker remained at drain time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchShed {
    /// Trace index of the request.
    pub idx: usize,
    /// Nominal shed time, seconds.
    pub at: f64,
}

/// A request's remaining work while queued or seated.
#[derive(Debug, Clone, Copy)]
struct SlotReq {
    idx: usize,
    total_tokens: u64,
    done_tokens: u64,
    service_secs: f64,
    deadline: Option<f64>,
    /// When the request entered the global queue (arrival, or the crash
    /// that re-queued it) — the reference point for idle-gap attribution.
    queued_at: f64,
}

impl SlotReq {
    fn remaining_tokens(&self) -> u64 {
        self.total_tokens - self.done_tokens
    }

    /// Priced cost of the request's next `chunk` tokens: the total priced
    /// service scaled by the chunk's token share. Summing over a request's
    /// chunks telescopes back to exactly its token-proportional split of
    /// `service_secs`, so chunking redistributes cost over time without
    /// inventing or losing any.
    fn chunk_service(&self, chunk: u64) -> f64 {
        self.service_secs * (chunk as f64 / self.total_tokens as f64)
    }
}

/// A round in flight on one worker. Its chunks are not stored: nothing
/// seats or unseats on a worker while its round is in flight, so
/// retirement recomputes each chunk from the seats. `seats` and `tokens`
/// check that in debug builds.
#[derive(Debug, Clone, Copy)]
struct InflightRound {
    finish: f64,
    seats: usize,
    tokens: u64,
}

#[derive(Debug, Clone)]
struct WorkerSlots {
    seated: Vec<SlotReq>,
    inflight: Option<InflightRound>,
    alive: bool,
    /// Planned departure in progress: the in-flight round runs to
    /// completion, then the remaining seated work migrates and the worker
    /// retires. No new seats fill and no new rounds start meanwhile.
    draining: bool,
    /// Bumped on crash so stale finish events are recognized and dropped.
    gen: u64,
    last_finish: f64,
}

/// The slot-based continuous batch scheduler (see module docs).
#[derive(Debug, Clone)]
pub struct BatchScheduler {
    cfg: BatchingConfig,
    batch_overhead_secs: f64,
    /// Tokens a round of two or more requests may carry.
    round_budget: u64,
    /// Per-worker service multiplier (1.0 nominal, >1 for stragglers).
    speeds: Vec<f64>,
    now: f64,
    pending: VecDeque<SlotReq>,
    workers: Vec<WorkerSlots>,
    /// Min-heap of round finish events: `(finish_ns, worker, generation)`.
    events: BinaryHeap<Reverse<(u64, usize, u64)>>,
    round_seq: u64,
    stats: BatchStats,
    completions: Vec<BatchCompletion>,
    sheds: Vec<BatchShed>,
    rounds: Vec<RoundRecord>,
    /// Cleared `RoundRecord::requests` vectors that
    /// [`BatchScheduler::drain_rounds_into`] took back, reused by the next
    /// rounds.
    spare_requests: Vec<Vec<usize>>,
    /// Requests seated over all workers (`peak_seated`'s running count).
    seated_total: usize,
}

/// Nominal seconds → the integer nanosecond key every event of a run is
/// ordered by (this machine's round finishes, the engines' arrivals and
/// faults). Instants with equal keys are simultaneous.
#[inline]
pub fn time_key(t: f64) -> u64 {
    (t * 1e9) as u64
}

impl BatchScheduler {
    /// A scheduler over `speeds.len()` live workers, each seat-limited by
    /// `cfg`, pricing every round under `batch_overhead_secs` and the
    /// worker's straggler multiplier. Rounds are not token-limited until
    /// [`BatchScheduler::with_round_budget`] sets a budget.
    ///
    /// # Panics
    ///
    /// Panics if `speeds` is empty or `cfg` fails validation.
    pub fn new(cfg: BatchingConfig, batch_overhead_secs: f64, speeds: Vec<f64>) -> Self {
        cfg.validate().expect("invalid batching config");
        assert!(!speeds.is_empty(), "batch scheduler needs >= 1 worker");
        let workers = speeds
            .iter()
            .map(|_| WorkerSlots {
                seated: Vec::new(),
                inflight: None,
                alive: true,
                draining: false,
                gen: 0,
                last_finish: 0.0,
            })
            .collect();
        BatchScheduler {
            cfg,
            batch_overhead_secs,
            round_budget: u64::MAX,
            speeds,
            now: 0.0,
            pending: VecDeque::new(),
            workers,
            events: BinaryHeap::new(),
            round_seq: 0,
            stats: BatchStats::default(),
            completions: Vec::new(),
            sheds: Vec::new(),
            rounds: Vec::new(),
            spare_requests: Vec::new(),
            seated_total: 0,
        }
    }

    /// Caps every round at `tokens` tokens (§5.1's max-batched-tokens): a
    /// seat fills only if the round still fits, and a request that does not
    /// fit even alone runs in a round of its own.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is zero.
    pub fn with_round_budget(mut self, tokens: u64) -> Self {
        assert!(tokens > 0, "token budget must be positive");
        self.round_budget = tokens;
        self
    }

    /// The configuration the scheduler runs under.
    pub fn config(&self) -> &BatchingConfig {
        &self.cfg
    }

    /// Number of currently-live workers.
    pub fn alive_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Un-retired priced service currently queued or seated, seconds
    /// (pre-straggler, overhead excluded). This is the slot-occupancy
    /// signal the overload controller folds into its admission backlog
    /// estimate: it reflects work the analytic drain model may have
    /// already written off.
    pub fn outstanding_service_secs(&self) -> f64 {
        let queued: f64 = self
            .pending
            .iter()
            .map(|r| r.chunk_service(r.remaining_tokens()))
            .sum();
        let seated: f64 = self
            .workers
            .iter()
            .flat_map(|w| w.seated.iter())
            .map(|r| r.chunk_service(r.remaining_tokens()))
            .sum();
        queued + seated
    }

    /// The batch-formation ledger so far.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Requests completed since the last drain, in completion order.
    pub fn drain_completions(&mut self) -> Vec<BatchCompletion> {
        std::mem::take(&mut self.completions)
    }

    /// Requests shed since the last drain, in shed order.
    pub fn drain_sheds(&mut self) -> Vec<BatchShed> {
        std::mem::take(&mut self.sheds)
    }

    /// Rounds started since the last drain, in start order. The serving
    /// runtime dispatches each as one physical worker task.
    pub fn drain_rounds(&mut self) -> Vec<RoundRecord> {
        std::mem::take(&mut self.rounds)
    }

    /// [`BatchScheduler::drain_rounds`] into a caller-owned buffer: the
    /// records `out` still holds give their `requests` vectors back to the
    /// machine, and the two buffers trade places. A caller that drains
    /// after every step into the same buffer allocates nothing once the
    /// buffers have grown to the most rounds one step forms.
    pub fn drain_rounds_into(&mut self, out: &mut Vec<RoundRecord>) {
        self.spare_requests.extend(out.drain(..).map(|round| {
            let mut requests = round.requests;
            requests.clear();
            requests
        }));
        std::mem::swap(&mut self.rounds, out);
    }

    /// Rounds started since the last drain.
    pub fn undrained_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Advances nominal time to `now`, retiring every round that finishes
    /// at or before it (ties resolve in `(time, worker, generation)` key
    /// order, matching the simulator's heap discipline).
    pub fn advance(&mut self, now: f64) {
        let key = time_key(now);
        while let Some(&Reverse((t, w, gen))) = self.events.peek() {
            if t > key {
                break;
            }
            self.events.pop();
            self.process_finish(w, gen);
        }
        self.now = self.now.max(now);
    }

    /// Retires one popped finish event, dropping stale entries from
    /// cancelled (crashed) rounds.
    fn process_finish(&mut self, w: usize, gen: u64) {
        if self.workers[w].gen != gen || !self.workers[w].alive {
            return;
        }
        let Some(round) = self.workers[w].inflight.take() else {
            return;
        };
        self.retire_round(w, round);
    }

    /// Admits one priced request at nominal time `now`: it joins the
    /// global FIFO and is seated immediately if any live worker has a free
    /// seat and no round in flight (otherwise it waits for the next round
    /// boundary anywhere in the cluster).
    ///
    /// `service_secs` is the request's full priced service (the planner's
    /// compute + load + net); `tokens` its total prompt tokens.
    pub fn admit(
        &mut self,
        now: f64,
        idx: usize,
        tokens: u64,
        service_secs: f64,
        deadline: Option<f64>,
    ) {
        self.advance(now);
        self.pending.push_back(SlotReq {
            idx,
            total_tokens: tokens.max(1),
            done_tokens: 0,
            service_secs,
            deadline,
            queued_at: now,
        });
        self.seat_idle_workers();
    }

    /// Kills worker `w` at nominal time `now`. The round in flight (if
    /// any) is cancelled — its chunk work is lost — and every seated
    /// request returns to the *front* of the global queue in seat order,
    /// keeping chunks already retired in earlier rounds. No request is
    /// dropped, so the conservation law survives mid-batch crashes.
    pub fn crash(&mut self, now: f64, w: usize) {
        self.advance(now);
        let worker = &mut self.workers[w];
        if !worker.alive {
            return;
        }
        worker.alive = false;
        worker.draining = false;
        worker.gen += 1;
        worker.inflight = None;
        self.seated_total -= worker.seated.len();
        for req in worker.seated.drain(..).rev() {
            let mut req = req;
            req.queued_at = now;
            self.stats.migrated_requests += 1;
            self.stats.migrated_tokens += req.remaining_tokens();
            self.pending.push_front(req);
        }
        self.seat_idle_workers();
    }

    /// Restarts worker `w` at nominal time `now` with empty seats; it
    /// immediately refills from the global queue.
    pub fn restart(&mut self, now: f64, w: usize) {
        self.advance(now);
        let worker = &mut self.workers[w];
        if worker.alive {
            return;
        }
        worker.alive = true;
        worker.draining = false;
        worker.gen += 1;
        worker.last_finish = now;
        self.seat_idle_workers();
    }

    /// Begins a *planned* departure of worker `w` at nominal time `now`.
    /// Unlike [`BatchScheduler::crash`], nothing in flight is lost: the
    /// round already running completes normally, no new chunks are seated
    /// meanwhile, and at the boundary every still-unfinished seated
    /// request migrates to the *front* of the global queue in seat order
    /// (chunks retired in earlier rounds stay retired). With no round in
    /// flight the worker retires immediately.
    pub fn drain(&mut self, now: f64, w: usize) {
        self.advance(now);
        let worker = &mut self.workers[w];
        if !worker.alive || worker.draining {
            return;
        }
        self.stats.drains += 1;
        if self.workers[w].inflight.is_some() {
            self.workers[w].draining = true;
        } else {
            self.retire_worker(w, now);
        }
    }

    /// A fresh worker takes over slot `w` at nominal time `now` (planned
    /// scale-out). It joins with empty seats and immediately refills from
    /// the global queue, exactly like a restart — but the ledger counts it
    /// as a join, and the serving runtime hands the slot a brand-new
    /// process with a bumped incarnation.
    pub fn join(&mut self, now: f64, w: usize) {
        self.advance(now);
        let worker = &mut self.workers[w];
        if worker.alive {
            return;
        }
        worker.alive = true;
        worker.draining = false;
        worker.gen += 1;
        worker.last_finish = now;
        self.stats.joins += 1;
        self.seat_idle_workers();
    }

    /// Completes a drain: migrates worker `w`'s remaining seated work to
    /// the front of the global queue (seat order preserved) and removes
    /// the worker from the membership.
    fn retire_worker(&mut self, w: usize, at: f64) {
        let worker = &mut self.workers[w];
        debug_assert!(worker.inflight.is_none(), "retire with a round in flight");
        worker.alive = false;
        worker.draining = false;
        worker.gen += 1;
        self.seated_total -= worker.seated.len();
        for req in worker.seated.drain(..).rev() {
            let mut req = req;
            req.queued_at = at;
            self.stats.migrated_requests += 1;
            self.stats.migrated_tokens += req.remaining_tokens();
            self.pending.push_front(req);
        }
        self.seat_idle_workers();
    }

    /// Pops the earliest finish event and retires its round — completions,
    /// refills at that boundary, and the successor round it starts — or
    /// drops it if a crash cancelled the round. Returns `false`, changing
    /// nothing, once no event is left. A caller that wants the tail's
    /// rounds as they form (rather than [`BatchScheduler::finish`]'s all at
    /// once) calls this in a loop and drains between calls.
    pub fn retire_next(&mut self) -> bool {
        let Some(Reverse((_, w, gen))) = self.events.pop() else {
            return false;
        };
        self.process_finish(w, gen);
        true
    }

    /// Runs the machine dry: retires every outstanding round (seating and
    /// starting successors as seats free up) until no work remains. If
    /// requests are still queued with no live worker to run them, they are
    /// shed (the engine counts them with the deadline-expired sheds — the
    /// cluster provably cannot serve them). Returns the nominal time of
    /// the last processed event.
    pub fn finish(&mut self) -> f64 {
        while self.retire_next() {}
        if self.alive_workers() == 0 {
            let now = self.now;
            while let Some(req) = self.pending.pop_front() {
                self.sheds.push(BatchShed {
                    idx: req.idx,
                    at: now,
                });
            }
        }
        debug_assert!(self.pending.is_empty(), "pending work with live workers");
        debug_assert!(self.workers.iter().all(|w| w.seated.is_empty()));
        self.now
    }

    /// Retires one finished round on worker `w`: applies chunk progress,
    /// records completions, refills freed seats from the global queue at
    /// this same boundary, and starts the next round if anyone is seated.
    fn retire_round(&mut self, w: usize, round: InflightRound) {
        let finish = round.finish;
        self.now = self.now.max(finish);
        let chunk_tokens = self.cfg.chunk_tokens;
        let worker = &mut self.workers[w];
        debug_assert_eq!(worker.seated.len(), round.seats, "seats moved mid-round");
        let completions = &mut self.completions;
        let mut tokens = 0;
        worker.seated.retain_mut(|req| {
            let chunk = req.remaining_tokens().min(chunk_tokens);
            tokens += chunk;
            req.done_tokens += chunk;
            let done = req.remaining_tokens() == 0;
            if done {
                completions.push(BatchCompletion {
                    idx: req.idx,
                    at: finish,
                });
            }
            !done
        });
        debug_assert_eq!(tokens, round.tokens, "chunks moved mid-round");
        self.seated_total -= round.seats - worker.seated.len();
        worker.last_finish = finish;
        self.stats.rounds += 1;
        self.stats.chunks += round.seats as u64;
        self.stats.batched_tokens += tokens;
        if self.workers[w].draining {
            // Planned departure: the round that was in flight when the
            // drain landed has now retired; migrate what remains instead
            // of refilling.
            self.retire_worker(w, finish);
            return;
        }
        self.fill_seats(w, finish, true);
        self.start_round(w, finish);
    }

    /// Seats pending requests on every live, idle worker (index order) and
    /// starts their rounds. Called after any admission, crash re-queue, or
    /// restart — the only situations where pending work can coexist with
    /// an idle worker.
    fn seat_idle_workers(&mut self) {
        let now = self.now;
        for w in 0..self.workers.len() {
            if self.pending.is_empty() {
                break;
            }
            if !self.workers[w].alive
                || self.workers[w].draining
                || self.workers[w].inflight.is_some()
            {
                continue;
            }
            self.fill_seats(w, now, false);
            self.start_round(w, now);
        }
    }

    /// Fills worker `w`'s free seats from the global FIFO at nominal time
    /// `now` while the round fits the budget, shedding queue-expired
    /// requests on the way (the deadline sweep, applied at seating time).
    /// `at_boundary` marks refills that happen at a round boundary — the
    /// continuous-batching events the ledger counts (a seat handed to a
    /// fresh request on an idle worker is a cold start, not a refill).
    fn fill_seats(&mut self, w: usize, now: f64, at_boundary: bool) {
        let chunk_tokens = self.cfg.chunk_tokens;
        let next_chunk = |r: &SlotReq| r.remaining_tokens().min(chunk_tokens);
        let mut tokens: u64 = self.workers[w].seated.iter().map(next_chunk).sum();
        while self.workers[w].seated.len() < self.cfg.slots_per_worker {
            let Some(req) = self.pending.pop_front() else {
                break;
            };
            if let Some(d) = req.deadline {
                if d < now {
                    self.sheds.push(BatchShed {
                        idx: req.idx,
                        at: now,
                    });
                    continue;
                }
            }
            let chunk = next_chunk(&req);
            if !self.workers[w].seated.is_empty()
                && tokens.saturating_add(chunk) > self.round_budget
            {
                // FIFO: the head waits for the next boundary.
                self.pending.push_front(req);
                break;
            }
            tokens = tokens.saturating_add(chunk);
            // Idle-gap attribution: the worker could have run this request
            // from the moment both it and the request were free. With
            // boundary refills and idle seating both immediate this is
            // structurally zero; the ablation gate asserts it stays so.
            let waited_since = self.workers[w].last_finish.max(req.queued_at);
            let gap = now - waited_since;
            if gap > 0.0 {
                let mean_chunk = self.mean_chunk_service(w);
                if mean_chunk > 0.0 {
                    let over = gap / mean_chunk;
                    if over > self.stats.max_idle_gap_over_chunk {
                        self.stats.max_idle_gap_over_chunk = over;
                    }
                }
            }
            self.workers[w].seated.push(req);
            self.seated_total += 1;
            if at_boundary {
                self.stats.seat_refills += 1;
            }
        }
        self.stats.peak_seated = self.stats.peak_seated.max(self.seated_total);
    }

    /// Mean priced chunk service on worker `w`'s current seats (straggler
    /// scaled) — the yardstick for the idle-gap stat.
    fn mean_chunk_service(&self, w: usize) -> f64 {
        let ws = &self.workers[w];
        if ws.seated.is_empty() {
            return 0.0;
        }
        let sum: f64 = ws
            .seated
            .iter()
            .map(|r| r.chunk_service(r.remaining_tokens().min(self.cfg.chunk_tokens)))
            .sum();
        sum / ws.seated.len() as f64 * self.speeds[w]
    }

    /// Starts the next round on worker `w` at nominal time `start` if any
    /// request is seated: one chunk per seat, one shared batch overhead,
    /// straggler-scaled. The round's `requests` vector comes from the
    /// spares [`BatchScheduler::drain_rounds_into`] returned, if any.
    fn start_round(&mut self, w: usize, start: f64) {
        let worker = &self.workers[w];
        if worker.seated.is_empty() || worker.inflight.is_some() {
            return;
        }
        let seats = worker.seated.len();
        let mut requests = self.spare_requests.pop().unwrap_or_default();
        requests.reserve(seats);
        let mut tokens = 0u64;
        let mut service = self.batch_overhead_secs;
        for req in &worker.seated {
            let chunk = req.remaining_tokens().min(self.cfg.chunk_tokens);
            service += req.chunk_service(chunk);
            tokens += chunk;
            requests.push(req.idx);
        }
        let service = service * self.speeds[w];
        let finish = start + service;
        let gen = worker.gen;
        self.workers[w].inflight = Some(InflightRound {
            finish,
            seats,
            tokens,
        });
        self.events.push(Reverse((time_key(finish), w, gen)));
        self.rounds.push(RoundRecord {
            seq: self.round_seq,
            worker: w,
            start,
            finish,
            service_secs: service,
            tokens,
            requests,
        });
        self.round_seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sched(workers: usize, seats: usize, chunk: u64) -> BatchScheduler {
        BatchScheduler::new(
            BatchingConfig {
                slots_per_worker: seats,
                chunk_tokens: chunk,
            },
            0.003,
            vec![1.0; workers],
        )
    }

    #[test]
    fn single_request_runs_in_token_chunks() {
        let mut s = sched(1, 4, 64);
        s.admit(0.0, 0, 200, 0.2, None);
        s.finish();
        let done = s.drain_completions();
        assert_eq!(done.len(), 1);
        // ceil(200/64) = 4 rounds of one chunk each.
        assert_eq!(s.stats().rounds, 4);
        assert_eq!(s.stats().chunks, 4);
        assert_eq!(s.stats().batched_tokens, 200);
        // Service telescopes: 0.2 of work + 4 × 3ms overhead.
        assert!((done[0].at - 0.212).abs() < 1e-9, "at {}", done[0].at);
    }

    #[test]
    fn concurrent_requests_share_rounds_and_amortize_overhead() {
        let mut s = sched(1, 4, 64);
        for i in 0..4 {
            s.admit(0.0, i, 64, 0.064, None);
        }
        s.finish();
        // Request 0 seats alone and starts a 1-wide round at t=0; the
        // other three wait for the boundary, then fuse into one 3-wide
        // round — 2 rounds, 4 chunks, not 4 rounds.
        assert_eq!(s.stats().rounds, 2);
        assert_eq!(s.stats().chunks, 4);
        assert_eq!(s.stats().seat_refills, 3);
        assert_eq!(s.drain_completions().len(), 4);
        // 4 requests, 2 overheads: cheaper than 4 sequential batches.
        assert!(s.now < 4.0 * (0.064 + 0.003));
    }

    #[test]
    fn seat_freed_mid_stream_is_refilled_at_the_boundary() {
        let mut s = sched(1, 2, 64);
        // Request 0 (1 chunk) seats alone and starts; 1 (3 chunks) and 2
        // (1 chunk) wait in the global queue.
        s.admit(0.0, 0, 64, 0.064, None);
        s.admit(0.0, 1, 192, 0.192, None);
        s.admit(0.0, 2, 64, 0.064, None);
        s.finish();
        let done = s.drain_completions();
        assert_eq!(done.len(), 3);
        // At request 0's boundary both seats refill; request 2 rides one
        // round alongside the long request and must finish before it —
        // a per-request batcher would have serialized it behind all of 1.
        let at = |idx: usize| done.iter().find(|c| c.idx == idx).unwrap().at;
        assert!(at(2) < at(1), "refilled request overtakes the long one");
        assert!(s.stats().seat_refills >= 1);
    }

    #[test]
    fn deadline_expired_in_queue_is_shed_at_seating() {
        let mut s = sched(1, 1, 64);
        s.admit(0.0, 0, 640, 0.64, None); // hog the only seat
        s.admit(0.0, 1, 64, 0.064, Some(0.05)); // will expire while queued
        s.finish();
        let sheds = s.drain_sheds();
        assert_eq!(sheds.len(), 1);
        assert_eq!(sheds[0].idx, 1);
        assert_eq!(s.drain_completions().len(), 1);
    }

    #[test]
    fn crash_requeues_seated_work_without_losing_requests() {
        let mut s = sched(2, 2, 64);
        for i in 0..4 {
            s.admit(0.0, i, 128, 0.128, None);
        }
        // Kill worker 0 mid-round: its two seated requests re-queue and
        // drain through worker 1.
        s.crash(0.01, 0);
        s.finish();
        let done = s.drain_completions();
        assert_eq!(done.len(), 4, "no request may vanish in a crash");
        assert!(s.drain_sheds().is_empty());
    }

    #[test]
    fn all_workers_dead_sheds_the_queue_for_conservation() {
        let mut s = sched(1, 1, 64);
        s.admit(0.0, 0, 64, 0.064, None);
        s.admit(0.0, 1, 64, 0.064, None);
        s.crash(0.001, 0);
        s.finish();
        assert_eq!(s.drain_completions().len(), 0);
        assert_eq!(s.drain_sheds().len(), 2);
    }

    #[test]
    fn restart_rejoins_and_drains_the_queue() {
        let mut s = sched(1, 2, 64);
        s.admit(0.0, 0, 64, 0.064, None);
        s.crash(0.001, 0);
        s.admit(0.002, 1, 64, 0.064, None);
        s.restart(0.01, 0);
        s.finish();
        assert_eq!(s.drain_completions().len(), 2);
        assert!(s.drain_sheds().is_empty());
    }

    #[test]
    fn drain_finishes_the_inflight_round_then_migrates_the_rest() {
        let mut s = sched(2, 2, 64);
        for i in 0..4 {
            s.admit(0.0, i, 192, 0.192, None);
        }
        // Requests 0/1 start 1-wide rounds; at the t≈0.067 boundary each
        // worker refills its second seat (2 and 3) into a 2-wide round.
        // A planned departure of worker 0 lands mid-round-2: unlike a
        // crash, that round retires normally; only the *remaining* chunks
        // of its two seats migrate to the surviving worker.
        s.drain(0.1, 0);
        s.finish();
        let done = s.drain_completions();
        assert_eq!(done.len(), 4, "no request may vanish in a drain");
        assert!(s.drain_sheds().is_empty());
        let st = s.stats();
        assert_eq!(st.drains, 1);
        assert_eq!(st.joins, 0);
        // At the drain boundary request 0 has retired two chunks (64 left)
        // and request 2 one chunk (128 left): two migrations, 192 tokens
        // of remaining work — retired chunks stay retired.
        assert_eq!(st.migrated_requests, 2);
        assert_eq!(st.migrated_tokens, 192);
        // Every token was still batched exactly once.
        assert_eq!(st.batched_tokens, 4 * 192);
        assert_eq!(s.alive_workers(), 1);
    }

    #[test]
    fn drain_of_an_idle_worker_retires_it_immediately() {
        let mut s = sched(2, 1, 64);
        s.drain(0.0, 0);
        assert_eq!(s.alive_workers(), 1);
        assert_eq!(s.stats().drains, 1);
        assert_eq!(s.stats().migrated_requests, 0);
        // Draining again (or draining a retired worker) is a no-op.
        s.drain(0.1, 0);
        assert_eq!(s.stats().drains, 1);
        s.admit(0.2, 0, 64, 0.064, None);
        s.finish();
        assert_eq!(s.drain_completions().len(), 1);
        let rounds = s.drain_rounds();
        assert!(
            rounds.iter().all(|r| r.worker == 1),
            "a drained worker must not be seated"
        );
    }

    #[test]
    fn join_reoccupies_the_slot_and_serves_new_work() {
        let mut s = sched(2, 1, 64);
        s.drain(0.0, 0);
        s.join(1.0, 0);
        assert_eq!(s.alive_workers(), 2);
        assert_eq!(s.stats().joins, 1);
        // Joining an occupied slot is a no-op.
        s.join(1.1, 0);
        assert_eq!(s.stats().joins, 1);
        s.admit(1.2, 0, 64, 0.064, None);
        s.admit(1.2, 1, 64, 0.064, None);
        s.finish();
        assert_eq!(s.drain_completions().len(), 2);
        let rounds = s.drain_rounds();
        assert!(
            rounds.iter().any(|r| r.worker == 0),
            "the joined worker must pull its share of the queue"
        );
    }

    #[test]
    fn draining_the_last_worker_sheds_like_a_dead_cluster() {
        // The schedule validator refuses this; the machine itself must
        // still conserve if driven here directly.
        let mut s = sched(1, 1, 64);
        s.admit(0.0, 0, 128, 0.128, None);
        s.admit(0.0, 1, 64, 0.064, None);
        s.drain(0.01, 0);
        s.finish();
        assert_eq!(s.drain_completions().len(), 0);
        assert_eq!(s.drain_sheds().len(), 2);
        assert_eq!(s.alive_workers(), 0);
    }

    #[test]
    fn rounds_log_matches_ledger_and_is_dispatchable() {
        let mut s = sched(2, 2, 32);
        for i in 0..5 {
            s.admit(i as f64 * 0.001, i, 96, 0.096, None);
        }
        s.finish();
        let rounds = s.drain_rounds();
        assert_eq!(rounds.len() as u64, s.stats().rounds);
        let chunk_count: usize = rounds.iter().map(|r| r.requests.len()).sum();
        assert_eq!(chunk_count as u64, s.stats().chunks);
        let tokens: u64 = rounds.iter().map(|r| r.tokens).sum();
        assert_eq!(tokens, s.stats().batched_tokens);
        for r in &rounds {
            assert!(r.finish > r.start);
            assert!(r.service_secs > 0.0);
        }
        // Sequence numbers are dense and start-ordered.
        for (i, r) in rounds.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn outstanding_service_tracks_admissions_and_drains_to_zero() {
        let mut s = sched(1, 1, 64);
        assert_eq!(s.outstanding_service_secs(), 0.0);
        s.admit(0.0, 0, 128, 0.128, None);
        s.admit(0.0, 1, 64, 0.064, None);
        let outstanding = s.outstanding_service_secs();
        assert!((outstanding - 0.192).abs() < 1e-9, "got {outstanding}");
        s.finish();
        assert_eq!(s.outstanding_service_secs(), 0.0);
    }

    #[test]
    fn saturated_worker_never_idles_longer_than_a_chunk() {
        let mut s = sched(2, 4, 64);
        // 3x-burst shape: sustained load with a dense burst in the middle.
        let mut idx = 0;
        for step in 0..200 {
            let t = step as f64 * 0.005;
            let n = if (50..100).contains(&step) { 3 } else { 1 };
            for _ in 0..n {
                s.admit(t, idx, 128, 0.02, None);
                idx += 1;
            }
        }
        s.finish();
        assert_eq!(s.drain_completions().len(), idx);
        assert!(
            s.stats().max_idle_gap_over_chunk <= 1.0,
            "idle gap {} chunks",
            s.stats().max_idle_gap_over_chunk
        );
        assert!(s.stats().seat_refills > 0);
        assert!(s.stats().peak_seated >= 4);
    }

    #[test]
    fn identical_inputs_give_identical_ledgers() {
        let run = || {
            let mut s = sched(3, 2, 48);
            for i in 0..50 {
                let t = (i % 7) as f64 * 0.013 + i as f64 * 0.001;
                s.admit(t, i, 32 + (i as u64 * 37) % 200, 0.01, Some(t + 0.5));
                if i == 20 {
                    s.crash(t, 1);
                }
                if i == 35 {
                    s.restart(t, 1);
                }
            }
            s.finish();
            (s.stats(), s.drain_completions(), s.drain_sheds())
        };
        let (a_stats, a_done, a_shed) = run();
        let (b_stats, b_done, b_shed) = run();
        assert_eq!(a_stats, b_stats);
        assert_eq!(a_done, b_done);
        assert_eq!(a_shed, b_shed);
    }

    proptest! {
        /// Satellite 3, machine level: under random chunk sizes, burst
        /// schedules, and mid-batch worker crashes, every admitted request
        /// reaches exactly one terminal outcome —
        /// `admitted == completed + shed`, the slot half of the PR-5
        /// conservation law.
        #[test]
        fn conservation_under_chunks_bursts_and_crashes(
            seats in 1usize..5,
            chunk in 1u64..200,
            n_workers in 1usize..5,
            jobs in proptest::collection::vec((1u64..500, 1u32..50, proptest::bool::ANY), 1..60),
            crash_at in 1usize..40,
            restart_after in 0usize..10,
        ) {
            let mut s = BatchScheduler::new(
                BatchingConfig { slots_per_worker: seats, chunk_tokens: chunk },
                0.002,
                vec![1.0; n_workers],
            );
            let mut t = 0.0f64;
            let mut admitted = 0usize;
            for (i, (tokens, gap_ms, tight)) in jobs.iter().enumerate() {
                t += *gap_ms as f64 * 1e-4; // bursty: gaps of 0.1ms..5ms
                let deadline = if *tight { Some(t + 0.05) } else { None };
                s.admit(t, i, *tokens, *tokens as f64 * 1e-4, deadline);
                admitted += 1;
                if i == crash_at {
                    s.crash(t, crash_at % n_workers);
                }
                if i == crash_at + restart_after {
                    s.restart(t, crash_at % n_workers);
                }
            }
            // Make sure at least one worker survives to drain the queue
            // (the all-dead case is covered by a unit test above).
            if s.alive_workers() == 0 {
                s.restart(t, 0);
            }
            s.finish();
            let done = s.drain_completions().len();
            let shed = s.drain_sheds().len();
            prop_assert_eq!(done + shed, admitted, "lost or duplicated requests");
            // The ledger is consistent with itself.
            let st = s.stats();
            prop_assert!(st.chunks >= st.rounds);
            let total_tokens: u64 = jobs.iter().map(|(tk, _, _)| *tk).sum();
            prop_assert!(st.batched_tokens <= total_tokens, "over-counted tokens");
        }

        /// Tentpole conservation extension: random *membership* schedules —
        /// interleaved drains, joins, crashes, and restarts at arbitrary
        /// points in a bursty arrival stream — never lose or double-count a
        /// request, and the migration ledger stays self-consistent (every
        /// migrated request carried at least one remaining token).
        #[test]
        fn conservation_under_random_membership_churn(
            seats in 1usize..4,
            chunk in 16u64..200,
            n_workers in 2usize..6,
            jobs in proptest::collection::vec((1u64..500, 1u32..50, proptest::bool::ANY), 1..60),
            churn in proptest::collection::vec(
                (0usize..60, 0u8..4, 0usize..6),
                0..12,
            ),
        ) {
            let mut s = BatchScheduler::new(
                BatchingConfig { slots_per_worker: seats, chunk_tokens: chunk },
                0.002,
                vec![1.0; n_workers],
            );
            // Membership events keyed by arrival index. Invalid transitions
            // (drain a dead worker, join an occupied slot, …) are no-ops in
            // the machine, so the random stream needs no pre-validation.
            let mut t = 0.0f64;
            let mut admitted = 0usize;
            for (i, (tokens, gap_ms, tight)) in jobs.iter().enumerate() {
                t += *gap_ms as f64 * 1e-4;
                for (at, kind, target) in &churn {
                    if *at == i {
                        let w = *target % n_workers;
                        match kind {
                            0 => s.drain(t, w),
                            1 => s.join(t, w),
                            2 => s.crash(t, w),
                            _ => s.restart(t, w),
                        }
                    }
                }
                let deadline = if *tight { Some(t + 0.05) } else { None };
                s.admit(t, i, *tokens, *tokens as f64 * 1e-4, deadline);
                admitted += 1;
            }
            s.finish();
            let done = s.drain_completions().len();
            let shed = s.drain_sheds().len();
            prop_assert_eq!(done + shed, admitted, "lost or duplicated requests");
            let st = s.stats();
            // Migration moves only unfinished work: at least one token per
            // move, and never more than the trace offered per move.
            prop_assert!(st.migrated_tokens >= st.migrated_requests);
            let max_tokens = jobs.iter().map(|(tk, _, _)| *tk).max().unwrap_or(0);
            prop_assert!(st.migrated_tokens <= st.migrated_requests * max_tokens);
            let total_tokens: u64 = jobs.iter().map(|(tk, _, _)| *tk).sum();
            prop_assert!(st.batched_tokens <= total_tokens, "over-counted tokens");
        }
    }
}
