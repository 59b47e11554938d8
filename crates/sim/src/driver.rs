//! The shared serving driver: one request front end and one slot driver.
//!
//! §5.1 has a single scheduler in front of the inference workers. This
//! module is that scheduler for every entry path of the repo:
//!
//! * `FrontEnd` is what happens to a request when it arrives — item
//!   refresh, admission, brownout rung, plan, token accounting — and what a
//!   finished run reports.
//! * [`SlotDriver`] is the run, and the only executor: it owns the front
//!   end, the [`BatchScheduler`] and the admitted-job table, and walks the
//!   planner's fault schedule and a sorted trace on *nominal* time. Under
//!   [`EngineConfig::batching`] the machine runs that slot configuration;
//!   without it, per-request batching ([`BatchingConfig::PER_REQUEST`]).
//!   Every round fits `cluster.max_batched_tokens`. Callers supply what is
//!   physical through two hooks: `before_arrival` (the runtime paces the
//!   wall clock there; the simulator does nothing) and `on_rounds` (the
//!   runtime puts each formed round on the wire; the tail after the last
//!   arrival comes in bounded batches while the machine is still forming
//!   it). The ledger never sees the hooks, which is why simulator and
//!   runtime statistics are equal bitwise.

use crate::engine::EngineConfig;
use crate::planner::{PlannedJob, RequestPlanner};
use crate::stats::{RequestRecord, RunStats};
use bat_faults::AppliedFault;
use bat_metrics::{BatchStats, Percentiles, SloStats};
use bat_sched::{time_key, BatchScheduler, BatchingConfig, OverloadController, RoundRecord};
use bat_types::{BatError, Bytes, PrefixKind, RankRequest, RejectReason, RequestId};

/// The arrival-side counters of a run.
///
/// Priced seconds enter only through `Ledger::charge`, at **completion**:
/// the driver folds each served request's plan-time price in the machine's
/// completion order, so the f64 sums are the same in every engine and shed
/// work is never charged.
#[derive(Debug, Default)]
struct Ledger {
    total_tokens: u64,
    reused_tokens: u64,
    computed_tokens: u64,
    remote_bytes: Bytes,
    compute_secs: f64,
    net_secs: f64,
    load_secs: f64,
    up_requests: usize,
    ip_requests: usize,
    slo: SloStats,
    /// Nanosecond-rounded arrival of the first request.
    first_arrival: Option<f64>,
}

impl Ledger {
    /// Folds one job's priced `(compute, load, net)` seconds into the run.
    fn charge(&mut self, compute: f64, load: f64, net: f64) {
        self.compute_secs += compute;
        self.load_secs += load;
        self.net_secs += net;
    }
}

/// Terminal outcomes of admitted requests, folded from the slot machine's
/// completion and shed lists.
#[derive(Debug, Default)]
struct Outcomes {
    latencies: Percentiles,
    completed: usize,
    deadline_misses: u64,
    shed: u64,
    last_completion: f64,
}

impl Outcomes {
    /// One request served, `latency` seconds after it arrived, at time `at`.
    fn complete(&mut self, latency: f64, at: f64, missed_deadline: bool) {
        self.latencies.record(latency);
        self.completed += 1;
        self.deadline_misses += u64::from(missed_deadline);
        self.last_completion = self.last_completion.max(at);
    }

    /// `n` admitted requests swept unserved (deadline expired in a queue, or
    /// no live worker left to run them).
    fn shed(&mut self, n: u64) {
        self.shed += n;
    }
}

/// A request past admission: its plan, arrival and deadline.
#[derive(Debug)]
struct Admitted {
    /// The planner's decision.
    plan: PlannedJob,
    /// Arrival the request's latency is measured from, seconds.
    arrival_secs: f64,
    /// Absolute completion deadline; `None` when the request is best-effort
    /// or the control plane is off.
    deadline: Option<f64>,
}

impl Admitted {
    /// The telemetry record of this request completing at `completion_secs`.
    fn record(&self, id: RequestId, completion_secs: f64) -> RequestRecord {
        RequestRecord {
            id,
            arrival_secs: self.arrival_secs,
            completion_secs,
            prefix: self.plan.prefix,
            reused_tokens: self.plan.reused_tokens(),
            computed_tokens: self.plan.suffix_tokens,
            remote_bytes: self.plan.remote_bytes,
        }
    }
}

/// Live drain capacity in worker-equivalents: each live worker contributes
/// `1 / slowdown`, so a 5x straggler counts as 0.2 workers.
fn live_capacity(planner: &RequestPlanner, speeds: &[f64]) -> f64 {
    (0..speeds.len())
        .filter(|&i| planner.is_worker_alive(i))
        .map(|i| 1.0 / speeds[i])
        .sum()
}

/// The request front end: planner, optional overload controller, per-worker
/// speeds and the counter ledger.
struct FrontEnd<'a> {
    cfg: &'a EngineConfig,
    planner: &'a mut RequestPlanner,
    /// Built on nominal arrival times and planner cost estimates only, so
    /// every engine makes bit-identical admission decisions. `None` without
    /// an SLO, and not an always-present controller with an unbounded
    /// backlog: a controller reads the slot machine's whole queue
    /// (`outstanding_service_secs`) on every arrival, and without admission
    /// control an overloaded run's queue has no bound. That read alone made
    /// the `sim_replay` benchmark about 9× slower (93 k against 787–833 k
    /// requests/s on 2 vCPUs).
    controller: Option<OverloadController>,
    /// Service-time multiplier per worker (1.0 unless it is the straggler).
    speeds: Vec<f64>,
    /// Seconds between item refreshes, and the nominal time of the next:
    /// both infinite without a refresh interval.
    refresh_every: f64,
    next_refresh: f64,
    ledger: Ledger,
}

impl<'a> FrontEnd<'a> {
    /// A front end for one run of `cfg` over `planner`, with the
    /// configuration's straggler ([`EngineConfig::straggler`]) slowed down.
    fn new(cfg: &'a EngineConfig, planner: &'a mut RequestPlanner) -> Self {
        let speeds: Vec<f64> = (0..cfg.cluster.num_nodes)
            .map(|i| match cfg.straggler {
                Some((w, factor)) if w == i => factor,
                _ => 1.0,
            })
            .collect();
        let refresh_every = cfg.item_refresh_interval_secs.unwrap_or(f64::INFINITY);
        let controller = cfg
            .slo
            .map(|slo| OverloadController::new(slo, live_capacity(planner, &speeds)));
        FrontEnd {
            cfg,
            planner,
            controller,
            speeds,
            refresh_every,
            next_refresh: refresh_every,
            ledger: Ledger::default(),
        }
    }

    /// One request arrives at `nominal` seconds, after the caller applied
    /// the faults due by then: the item refresh runs if its interval has
    /// passed, the overload controller admits or rejects (seeing the slot
    /// machine's backlog), and an admitted request is planned on the
    /// controller's brownout rung and counted.
    ///
    /// # Errors
    ///
    /// The reason the controller refused the request; the planner is left
    /// as if it had never arrived.
    fn arrive(
        &mut self,
        req: &RankRequest,
        nominal: f64,
        slots: &mut BatchScheduler,
    ) -> Result<Admitted, RejectReason> {
        // The refresh boundary is compared on the nanosecond-rounded clock
        // every event of a run is ordered by.
        let rounded = time_key(nominal) as f64 / 1e9;
        self.ledger.first_arrival.get_or_insert(rounded);
        if rounded >= self.next_refresh {
            self.planner.refresh_item_replication(rounded);
            self.next_refresh = rounded + self.refresh_every;
        }
        if let Some(ctl) = &mut self.controller {
            ctl.set_capacity(live_capacity(self.planner, &self.speeds));
            // Slot occupancy floors the analytic backlog: work seated or
            // queued in the machine is drain the controller's leaky bucket
            // cannot see on its own.
            slots.advance(nominal);
            ctl.set_slot_backlog(slots.outstanding_service_secs());
            let slo = &mut self.ledger.slo;
            slo.submitted += 1;
            let est = self.planner.admission_estimate_secs(req);
            let decision = ctl.on_arrival(nominal, est, req.slo.deadline_secs, req.slo.priority);
            if let Err(BatError::Rejected { reason }) = decision.into_result() {
                match reason {
                    RejectReason::QueueFull => slo.rejected_queue_full += 1,
                    RejectReason::DeadlineInfeasible => slo.rejected_infeasible += 1,
                    RejectReason::BrownoutShed => slo.rejected_brownout += 1,
                }
                return Err(reason);
            }
            slo.accepted += 1;
            self.planner.set_brownout_rung(ctl.rung());
        }
        let plan = self.planner.plan(req, nominal);
        let ledger = &mut self.ledger;
        ledger.total_tokens += u64::from(req.total_tokens());
        ledger.reused_tokens += plan.reused_tokens();
        ledger.computed_tokens += plan.suffix_tokens;
        ledger.remote_bytes += plan.remote_bytes;
        if self.cfg.caching {
            match plan.prefix {
                PrefixKind::User => ledger.up_requests += 1,
                PrefixKind::Item => ledger.ip_requests += 1,
            }
        }
        Ok(Admitted {
            plan,
            arrival_secs: nominal,
            deadline: self
                .controller
                .as_ref()
                .and_then(|_| req.slo.absolute_deadline(nominal)),
        })
    }

    /// Closes the run: the ledger, the terminal `outcomes`, the slot
    /// machine's ledger and the planner's fault and tier reports become the
    /// run's statistics.
    fn finish(self, mut outcomes: Outcomes, batching: BatchStats) -> RunStats {
        let ledger = self.ledger;
        let span = match ledger.first_arrival {
            Some(first) if outcomes.completed > 0 => (outcomes.last_completion - first).max(1e-9),
            _ => 0.0,
        };
        let mut stats = RunStats::from_counters(
            self.cfg.label.clone(),
            outcomes.completed,
            span,
            ledger.total_tokens,
            ledger.reused_tokens,
            ledger.computed_tokens,
            ledger.remote_bytes,
            ledger.compute_secs,
            ledger.net_secs,
            ledger.load_secs,
            ledger.up_requests,
            ledger.ip_requests,
            &mut outcomes.latencies,
        );
        stats.slo = ledger.slo;
        stats.slo.shed_expired = outcomes.shed;
        if self.controller.is_some() {
            stats.slo.completed = outcomes.completed as u64;
            stats.slo.deadline_misses = outcomes.deadline_misses;
        }
        stats.batching = batching;
        // The SLO plane's migration ledger is the machine's.
        stats.slo.migrated = batching.migrated_requests;
        if self.cfg.faults.is_some() {
            stats.faults = self.planner.finish_faults();
        }
        if self.cfg.tiers.is_some() {
            stats.tiers = self.planner.tier_stats();
        }
        stats
    }
}

/// A job's priced `(compute, load, net)` seconds.
type Price = (f64, f64, f64);

/// The most rounds one `on_rounds` call receives. Past the last arrival the
/// machine forms the whole overloaded tail with nothing to interleave, and
/// the driver hands it over whenever this many rounds are pending, so the
/// round log stays this size instead of the tail's (187 k rounds on the
/// benchmark's `sim_replay` trace). It is not 1 because the runtime turns
/// each call into one write per link: a write per round cost `serve_slots`
/// about a third of its throughput, while 64 and 1 024 rounds a call both
/// beat handing over the whole tail (EXPERIMENTS.md has the table).
const ROUND_BATCH: usize = 1024;

/// The serving run on nominal time; see the module docs.
pub struct SlotDriver<'a> {
    front: FrontEnd<'a>,
    machine: BatchScheduler,
    /// Plan and price of every admitted request, by trace index, until the
    /// machine reports its terminal outcome.
    admitted: Vec<Option<(Admitted, Price)>>,
    /// The rounds one step formed, handed to `on_rounds` and reused.
    rounds: Vec<RoundRecord>,
}

impl<'a> SlotDriver<'a> {
    /// A driver for one run of `cfg` over `planner`: the configuration's
    /// slot discipline, or per-request batching without one, under its
    /// max-batched-tokens.
    pub fn new(cfg: &'a EngineConfig, planner: &'a mut RequestPlanner) -> Self {
        let front = FrontEnd::new(cfg, planner);
        let machine = BatchScheduler::new(
            cfg.batching.unwrap_or(BatchingConfig::PER_REQUEST),
            cfg.batch_overhead_secs,
            front.speeds.clone(),
        )
        .with_round_budget(u64::from(cfg.cluster.max_batched_tokens));
        SlotDriver {
            front,
            machine,
            admitted: Vec::new(),
            rounds: Vec::new(),
        }
    }

    /// Hands the rounds formed since the last call to `on_rounds`, at most
    /// [`ROUND_BATCH`] a call, leaving the machine's round log empty.
    fn emit_rounds(&mut self, on_rounds: &mut impl FnMut(&[RoundRecord])) {
        self.machine.drain_rounds_into(&mut self.rounds);
        for batch in self.rounds.chunks(ROUND_BATCH) {
            on_rounds(batch);
        }
    }

    /// Applies every scheduled fault whose nanosecond key is at most
    /// `through`, each at its own scheduled time, to the planner and — for
    /// membership changes — to the machine. Seated work requeued off a
    /// departed worker may form fresh rounds on the survivors.
    fn apply_faults(&mut self, through: u64, on_rounds: &mut impl FnMut(&[RoundRecord])) {
        while let Some(at) = self.front.planner.next_fault_at() {
            if time_key(at) > through {
                break;
            }
            // Same-instant siblings fire with the first, in schedule order.
            for fault in self.front.planner.advance_faults(at) {
                match fault {
                    // Seated work re-queues at the global FIFO's front;
                    // cache accounting already happened in the planner.
                    AppliedFault::Crashed(dead) => self.machine.crash(at, dead.index()),
                    AppliedFault::Restarted(back, _) => self.machine.restart(at, back.index()),
                    // Planned departure: the in-flight round completes,
                    // then the remaining seated work migrates.
                    AppliedFault::Drained(leaving) => self.machine.drain(at, leaving.index()),
                    AppliedFault::Joined(fresh, _) => self.machine.join(at, fresh.index()),
                    _ => {}
                }
                debug_assert!(
                    (0..self.front.speeds.len()).all(|w| self.machine.is_member(w)
                        == self.front.planner.is_worker_alive(w)),
                    "the slot machine left the fault view's membership at t={at}"
                );
            }
            self.emit_rounds(on_rounds);
        }
    }

    /// One arrival: due faults first (a fault wins a key tie), then the
    /// front end, then the machine.
    fn step(&mut self, idx: usize, req: &RankRequest, on_rounds: &mut impl FnMut(&[RoundRecord])) {
        let nominal = req.arrival.as_secs();
        self.apply_faults(time_key(nominal), on_rounds);
        let Ok(job) = self.front.arrive(req, nominal, &mut self.machine) else {
            return;
        };
        let (c, l, t) = self.front.planner.price(&job.plan);
        self.machine.admit(
            nominal,
            idx,
            job.plan.suffix_tokens,
            c + l + t,
            job.deadline,
        );
        self.admitted[idx] = Some((job, (c, l, t)));
        self.emit_rounds(on_rounds);
    }

    /// Runs the machine dry — faults scheduled past the last arrival still
    /// reshape the membership first — one finish event at a time, handing
    /// the tail to `on_rounds` in batches of [`ROUND_BATCH`] rounds as it
    /// forms.
    fn drain_tail(&mut self, on_rounds: &mut impl FnMut(&[RoundRecord])) {
        self.apply_faults(u64::MAX, on_rounds);
        while self.machine.retire_next() {
            if self.machine.undrained_rounds() >= ROUND_BATCH {
                self.emit_rounds(on_rounds);
            }
        }
        // No event is left: this is only the dead-cluster shed.
        self.machine.finish();
        self.emit_rounds(on_rounds);
    }

    /// Folds the terminal ledger of a drained machine in its completion
    /// order.
    fn finish(mut self, trace: &[RankRequest]) -> (RunStats, Vec<RequestRecord>) {
        let mut outcomes = Outcomes::default();
        let mut records = Vec::new();
        for done in self.machine.drain_completions() {
            let (job, (c, l, t)) = self.admitted[done.idx]
                .as_ref()
                .expect("machine completions cover only admitted requests");
            self.front.ledger.charge(*c, *l, *t);
            outcomes.complete(
                done.at - job.arrival_secs,
                done.at,
                job.deadline.is_some_and(|d| done.at > d),
            );
            if self.front.cfg.record_requests {
                records.push(job.record(trace[done.idx].id, done.at));
            }
        }
        outcomes.shed(self.machine.drain_sheds().len() as u64);
        let stats = self.front.finish(outcomes, self.machine.stats());
        (stats, records)
    }

    /// Serves an arrival-sorted `trace` to completion. `before_arrival` is
    /// called with each request's nominal arrival before anything due then
    /// is processed; `on_rounds` with the rounds each step formed and then
    /// with the tail in batches of at most `ROUND_BATCH`, in `seq` order,
    /// every round exactly once. Returns the run's statistics and — under
    /// [`EngineConfig::record_requests`] — its per-request telemetry.
    pub fn run(
        mut self,
        trace: &[RankRequest],
        mut before_arrival: impl FnMut(f64),
        mut on_rounds: impl FnMut(&[RoundRecord]),
    ) -> (RunStats, Vec<RequestRecord>) {
        self.admitted.resize_with(trace.len(), || None);
        for (idx, req) in trace.iter().enumerate() {
            before_arrival(req.arrival.as_secs());
            self.step(idx, req, &mut on_rounds);
        }
        self.drain_tail(&mut on_rounds);
        self.finish(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SystemKind;
    use bat_faults::{FaultEvent, FaultKind, FaultSchedule};
    use bat_types::{ClusterConfig, DatasetConfig, ModelConfig, SimTime, WorkerId};
    use bat_workload::{TraceGenerator, Workload};

    fn config(ds: &DatasetConfig) -> EngineConfig {
        EngineConfig::for_system(
            SystemKind::Bat,
            ModelConfig::qwen2_1_5b(),
            ClusterConfig::a100_4node().with_nodes(2),
            ds,
        )
    }

    fn trace(ds: &DatasetConfig, secs: f64, rate: f64) -> Vec<RankRequest> {
        TraceGenerator::new(Workload::new(ds.clone(), 11), 12).generate(secs, rate)
    }

    fn event(at_secs: f64, kind: FaultKind) -> FaultEvent {
        FaultEvent { at_secs, kind }
    }

    #[test]
    fn a_fault_wins_a_key_tie_and_late_faults_still_reach_the_machine() {
        let ds = DatasetConfig::games();
        let mut requests = trace(&ds, 1.0, 20.0);
        requests.truncate(1);
        requests[0].arrival = SimTime::from_secs(1.0);
        // The crash is *after* the arrival by less than a nanosecond: the
        // planner's own `at_secs <= now` advance would not apply it, the
        // driver's key comparison must. The restart and the drain fall
        // after the only arrival.
        let crash_at = 1.0 + 2e-10;
        assert!(crash_at > 1.0 && time_key(crash_at) == time_key(1.0));
        let w = WorkerId::new;
        let schedule = FaultSchedule::new(
            2,
            vec![
                event(crash_at, FaultKind::WorkerCrash(w(0))),
                event(3.0, FaultKind::WorkerRestart(w(0))),
                event(5.0, FaultKind::WorkerDrain(w(1))),
            ],
        )
        .unwrap();
        let cfg = config(&ds)
            .with_faults(Some(schedule))
            .with_batching(Some(BatchingConfig::default()));
        let mut planner = RequestPlanner::from_config(&cfg);
        let driver = SlotDriver::new(&cfg, &mut planner);
        let mut rounds = Vec::new();
        let (stats, _) = driver.run(&requests, |_| {}, |r| rounds.extend_from_slice(r));
        // Planned after the crash: the request's first round is on the
        // survivor, and nothing ever had to migrate off worker 0.
        assert_eq!(rounds[0].worker, 1);
        assert_eq!(stats.batching.migrated_requests, 0);
        assert_eq!(stats.completed, 1);
        // The drain fired after the last arrival and still reached the
        // machine, not just the planner's report.
        assert_eq!((stats.faults.crashes, stats.faults.restarts), (1, 1));
        assert_eq!((stats.faults.drains, stats.batching.drains), (1, 1));
    }

    /// Four seats of whole Games prompts: a round lasts tens of
    /// milliseconds.
    const WHOLE_PROMPTS: BatchingConfig = BatchingConfig {
        slots_per_worker: 4,
        chunk_tokens: 4096,
    };

    #[test]
    fn a_join_inside_the_drained_round_takes_the_slot_at_its_boundary() {
        // Games on two nodes at 300 qps keeps worker 1 busy, so the drain
        // at t=1 lands inside a round and the join lands before that
        // round's boundary, under per-request and slot batching alike.
        let ds = DatasetConfig::games();
        let requests = trace(&ds, 2.0, 300.0);
        for eps in [1e-4, 1e-2] {
            for batching in [None, Some(WHOLE_PROMPTS)] {
                let at = format!("join {eps} s after the drain, batching {batching:?}");
                let schedule =
                    FaultSchedule::drain_join(2, WorkerId::new(1), 1.0, 1.0 + eps).unwrap();
                let cfg = config(&ds)
                    .with_faults(Some(schedule))
                    .with_batching(batching);
                let mut planner = RequestPlanner::from_config(&cfg);
                let driver = SlotDriver::new(&cfg, &mut planner);
                let mut rounds = Vec::new();
                let (stats, _) = driver.run(&requests, |_| {}, |r| rounds.extend_from_slice(r));
                let on_1 = |r: &&RoundRecord| r.worker == 1;
                let boundary = rounds
                    .iter()
                    .filter(on_1)
                    .filter(|r| r.start <= 1.0)
                    .map(|r| r.finish)
                    .fold(0.0, f64::max);
                assert!(
                    boundary > 1.0 + eps,
                    "{at}: drained round ends at {boundary}"
                );
                assert_eq!((stats.faults.joins, stats.batching.joins), (1, 1), "{at}");
                assert!(
                    rounds.iter().filter(on_1).any(|r| r.start >= boundary),
                    "{at}: worker 1 never ran a round after the join"
                );
                assert_eq!(stats.completed, requests.len(), "{at}");
            }
        }
    }

    /// Games on two nodes at more than they serve, in 8-token chunks: the
    /// rounds formed after the last arrival (≈ 6 200) outnumber
    /// [`ROUND_BATCH`] several times over.
    fn overloaded_tail() -> (EngineConfig, Vec<RankRequest>) {
        let ds = DatasetConfig::games();
        let requests = trace(&ds, 2.0, 300.0);
        let mut cfg = config(&ds).with_batching(Some(BatchingConfig {
            slots_per_worker: 4,
            chunk_tokens: 8,
        }));
        cfg.record_requests = true;
        (cfg, requests)
    }

    /// Steps every arrival of `requests`, handing the rounds to `on_rounds`.
    fn step_all(
        driver: &mut SlotDriver<'_>,
        requests: &[RankRequest],
        on_rounds: &mut impl FnMut(&[RoundRecord]),
    ) {
        driver.admitted.resize_with(requests.len(), || None);
        for (idx, req) in requests.iter().enumerate() {
            driver.step(idx, req, on_rounds);
            assert!(driver.machine.drain_rounds().is_empty(), "step {idx}");
        }
    }

    #[test]
    fn on_rounds_sees_every_round_once_in_order_and_empties_the_log() {
        let (cfg, requests) = overloaded_tail();
        let mut planner = RequestPlanner::from_config(&cfg);
        let mut driver = SlotDriver::new(&cfg, &mut planner);
        let mut seen: Vec<RoundRecord> = Vec::new();
        let mut on_rounds = |r: &[RoundRecord]| {
            assert!(!r.is_empty(), "the hook is not called for nothing");
            seen.extend_from_slice(r);
        };
        step_all(&mut driver, &requests, &mut on_rounds);
        driver.drain_tail(&mut on_rounds);
        assert!(driver.machine.drain_rounds().is_empty(), "tail");
        let (stats, _) = driver.finish(&requests);
        assert_eq!(stats.completed, requests.len());
        assert_eq!(seen.len() as u64, stats.batching.rounds);
        assert!(seen.iter().map(|r| r.seq).eq(0..seen.len() as u64));
        let tokens: u64 = seen.iter().map(|r| r.tokens).sum();
        assert_eq!(tokens, stats.batching.batched_tokens);
    }

    #[test]
    fn the_tail_streams_in_bounded_batches_of_what_finish_forms() {
        let (cfg, requests) = overloaded_tail();
        // One run per tail: streamed by the driver, or formed whole by the
        // machine's `finish` as one log. Each returns the tail's rounds as
        // `on_rounds` received them, and the run's results.
        let run = |streamed: bool| {
            let mut planner = RequestPlanner::from_config(&cfg);
            let mut driver = SlotDriver::new(&cfg, &mut planner);
            step_all(&mut driver, &requests, &mut |_| {});
            let mut calls: Vec<Vec<RoundRecord>> = Vec::new();
            if streamed {
                driver.drain_tail(&mut |r| calls.push(r.to_vec()));
                // The driver's buffer and the machine's log trade places at
                // every hand-over, so each has held the log: one batch,
                // never the tail.
                assert!(driver.rounds.capacity() <= 2 * ROUND_BATCH);
            } else {
                driver.machine.finish();
                calls.push(driver.machine.drain_rounds());
            }
            (calls, driver.finish(&requests))
        };
        let (streamed, streamed_run) = run(true);
        let (whole, whole_run) = run(false);
        let whole = whole.concat();
        assert!(
            whole.len() > 4 * ROUND_BATCH,
            "the tail forms only {} rounds",
            whole.len()
        );
        assert!(streamed.iter().all(|r| r.len() <= ROUND_BATCH));
        assert_eq!(streamed.concat(), whole);
        assert_eq!(streamed_run, whole_run);
        assert_eq!(streamed_run.1.len(), requests.len());
    }
}
