//! The scenarios a `batctl` subcommand and an experiment both run, and the
//! small helpers (a comparison spec, one run) they share; the seeded trace
//! is [`bat::experiment::trace`]. The experiment passes its recorded
//! constants and the subcommand its flags; each scenario prints into the
//! caller's [`Report`] and records the gates that hold for any input. The
//! caller adds its own.

use crate::{cells, f1, f3, Report};
use bat::experiment::{trace, ComparisonSpec};
use bat::meta::MetaGroup;
use bat::{
    Bytes, ClusterConfig, DatasetConfig, EngineConfig, FaultEvent, FaultKind, FaultReport,
    FaultSchedule, ModelConfig, OverloadConfig, Priority, RankRequest, RunStats, ServeOptions,
    ServeRuntime, ServingEngine, SloBudget, SloStats, TiersConfig, TraceGenerator, TransportKind,
    WorkerId, Workload,
};

/// A comparison of `model` on `cluster` serving `ds` for `duration`
/// seconds at `rate` (for saturation throughput, a
/// [`saturation_offered_rate`](bat::experiment::saturation_offered_rate)),
/// from trace `seed`.
pub fn spec(
    model: &ModelConfig,
    cluster: &ClusterConfig,
    ds: &DatasetConfig,
    (duration, rate): (f64, f64),
    seed: u64,
) -> ComparisonSpec {
    ComparisonSpec {
        model: model.clone(),
        cluster: cluster.clone(),
        dataset: ds.clone(),
        duration_secs: duration,
        offered_rate: rate,
        seed,
    }
}

/// One simulator run of `trace`.
pub fn run(cfg: EngineConfig, trace: &[RankRequest]) -> Result<RunStats, String> {
    Ok(ServingEngine::new(cfg)
        .map_err(|e| e.to_string())?
        .run(trace))
}

/// One threaded-runtime run of `trace`.
pub fn serve(
    cfg: EngineConfig,
    opts: ServeOptions,
    trace: &[RankRequest],
) -> Result<RunStats, String> {
    Ok(ServeRuntime::new(cfg, opts)
        .map_err(|e| e.to_string())?
        .serve(trace))
}

/// `run`'s in-deadline completions as a share of `reference`'s (1 when the
/// reference has none).
pub fn goodput_vs(run: &SloStats, reference: &SloStats) -> f64 {
    if reference.goodput() == 0 {
        1.0
    } else {
        run.goodput() as f64 / reference.goodput() as f64
    }
}

/// A ledger row: its name and how to read it off a run.
type Metric = (&'static str, fn(&RunStats) -> String);

/// The admission / goodput ledger of each run, side by side.
pub fn slo_ledger(report: &mut Report, runs: &[(&str, &RunStats)]) {
    let rows: [Metric; 12] = [
        ("submitted", |s| s.slo.submitted.to_string()),
        ("accepted", |s| s.slo.accepted.to_string()),
        ("rejected: queue full", |s| {
            s.slo.rejected_queue_full.to_string()
        }),
        ("rejected: deadline infeasible", |s| {
            s.slo.rejected_infeasible.to_string()
        }),
        ("rejected: brownout shed", |s| {
            s.slo.rejected_brownout.to_string()
        }),
        ("shed after admission (expired)", |s| {
            s.slo.shed_expired.to_string()
        }),
        ("completed", |s| s.slo.completed.to_string()),
        ("deadline misses", |s| s.slo.deadline_misses.to_string()),
        ("migrated (movement, not outcome)", |s| {
            s.slo.migrated.to_string()
        }),
        ("goodput (in-deadline)", |s| s.slo.goodput().to_string()),
        ("goodput ratio", |s| f3(s.slo.goodput_ratio())),
        ("P90 latency (ms)", |s| f1(s.p90_latency_ms)),
    ];
    let header: Vec<&str> = ["Metric"]
        .into_iter()
        .chain(runs.iter().map(|r| r.0))
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, of)| {
            [name.to_string()]
                .into_iter()
                .chain(runs.iter().map(|r| of(r.1)))
                .collect()
        })
        .collect();
    report.table(&header, &table);
}

fn events(report: &mut Report, schedule: &FaultSchedule) {
    for e in schedule.events() {
        report.line(format_args!("  t={:6.1}s  {:?}", e.at_secs, e.kind));
    }
}

/// `base` under a worker-fault `schedule`, beside the `healthy` fault-free
/// run of the same trace when the caller has one: the windowed hit rate
/// through the outage and the degradation / recovery ledger. Gate: faults
/// never drop a request. Returns the faulted run and its hit-rate timeline.
pub fn faults(
    report: &mut Report,
    base: EngineConfig,
    schedule: FaultSchedule,
    trace: &[RankRequest],
    healthy: Option<&RunStats>,
) -> Result<(RunStats, Vec<(f64, f64)>), String> {
    report.line(format_args!(
        "{} requests on {} workers under {} fault events:",
        trace.len(),
        base.cluster.num_nodes,
        schedule.events().len()
    ));
    events(report, &schedule);
    let mut engine =
        ServingEngine::new(base.with_faults(Some(schedule.clone()))).map_err(|e| e.to_string())?;
    let faulted = engine.run(trace);
    let timeline = engine.planner().fault_timeline();
    // A window is steady until the first crash, then an outage while some
    // worker is down (crashed, not yet restarted), then recovery.
    let phase = |t: f64| {
        let (mut crashed, mut down) = (false, 0);
        for e in schedule.events().iter().filter(|e| e.at_secs < t) {
            match e.kind {
                FaultKind::WorkerCrash(_) => (crashed, down) = (true, down + 1),
                FaultKind::WorkerRestart(_) => down -= 1,
                _ => {}
            }
        }
        match (crashed, down > 0) {
            (false, _) => "steady",
            (true, true) => "outage",
            (true, false) => "recovery",
        }
    };
    let step = (timeline.len() / 12).max(1);
    let curve: Vec<Vec<String>> = timeline
        .iter()
        .step_by(step)
        .map(|&(t, h)| cells![format!("{t:7.1}"), f3(h), phase(t)])
        .collect();
    report.line("\nAvailability curve (windowed hit rate):");
    report.table(&["t (s)", "hit rate", "phase"], &curve);

    let row = |label: &str, s: &RunStats| {
        let done = format!("{}/{}", s.completed, trace.len());
        cells![label, done, f1(s.qps()), f3(s.hit_rate())]
    };
    let mut rows = vec![row("faulted", &faulted)];
    rows.extend(healthy.map(|h| row("healthy", h)));
    report.line("");
    report.table(&["Run", "Completed", "QPS", "Hit rate"], &rows);
    report.line("");
    let r = &faulted.faults;
    report.table(
        &["Degradation / recovery", "Value"],
        &[
            cells!["pre-fault steady hit rate", f3(r.pre_fault_hit_rate)],
            cells!["min hit rate after fault", f3(r.min_hit_rate_after_fault)],
            cells!["hit-rate dip", f3(r.hit_rate_dip)],
            cells!["time to recover (s)", f1(r.time_to_recover_secs)],
            cells!["entries invalidated", r.invalidated_entries],
            cells!["replica hits during outage", r.replica_hits_during_outage],
            cells!["recompute fallbacks", r.recompute_fallbacks],
            cells!["stall-forced recomputes", r.stall_forced_recomputes],
            cells!["items re-warmed on restart", r.rewarmed_items],
        ],
    );
    if r.time_to_recover_secs < 0.0 && r.crashes > 0 {
        report.line("(hit rate had not recovered to steady state by end of trace)");
    }
    report.gate(
        "faults never drop a request",
        faulted.completed == trace.len(),
    );
    Ok((faulted, timeline))
}

/// The overload scenario's knobs. The trace is steady / `burst`× / steady
/// segments of `segment` seconds at `rate`, every request due within
/// `deadline` seconds; the faulted run adds a `straggle`× slow worker 1,
/// its link to worker 0 slowed `slow`×, and a worker-0 crash.
pub struct Overload {
    pub segment: f64,
    pub rate: f64,
    pub burst: f64,
    pub deadline: f64,
    pub slow: f64,
    pub straggle: f64,
}

/// `base` behind the SLO control plane, fault-free and under every fault
/// of [`Overload`] at once: the admission / goodput ledger of both and what
/// each control-plane mechanism did. Gate: both ledgers conserve requests.
/// Returns `(no fault, faulted)`.
pub fn overload(
    report: &mut Report,
    base: EngineConfig,
    ds: &DatasetConfig,
    seeds: (u64, u64),
    o: &Overload,
) -> Result<(RunStats, RunStats), String> {
    // Steady / burst / recovery segments on one resumable timeline; the
    // burst is best-effort (Priority::Low), so the brownout ladder has a
    // class to shed first.
    let mut gen = TraceGenerator::new(Workload::new(ds.clone(), seeds.0), seeds.1);
    let mut trace = Vec::new();
    for (priority, rate) in [
        (Priority::Normal, o.rate),
        (Priority::Low, o.burst * o.rate),
        (Priority::Normal, o.rate),
    ] {
        gen.set_slo(SloBudget::with_deadline(o.deadline).at_priority(priority));
        trace.extend(gen.generate(o.segment, rate));
    }

    // The compound fault. The link between workers 0 and 1 slows `slow`×
    // from the burst until halfway through recovery: at 150× a
    // single-holder pull's surcharge exceeds the seeded backoff window, so
    // once the ladder steps back below rung 2 the planner retries with
    // backoff. Early in recovery worker 0 crashes and rejoins cold, so hot
    // replicated prefixes come from a remote holder — the first behind the
    // slowed link — and the planner hedges against the next replica.
    let s = o.segment;
    let slow_link = |at_secs, factor| FaultEvent {
        at_secs,
        kind: FaultKind::SlowLink {
            a: WorkerId::new(0),
            b: WorkerId::new(1),
            factor,
        },
    };
    let worker_0 = |at_secs, kind: fn(WorkerId) -> FaultKind| FaultEvent {
        at_secs,
        kind: kind(WorkerId::new(0)),
    };
    let schedule = FaultSchedule::new(
        base.cluster.num_nodes,
        vec![
            slow_link(s, o.slow),
            worker_0(2.05 * s, FaultKind::WorkerCrash),
            worker_0(2.1 * s, FaultKind::WorkerRestart),
            slow_link(2.5 * s, 1.0),
        ],
    )
    .map_err(|e| e.to_string())?;
    report.line(format_args!(
        "{} requests over {:.0}s on {} workers; {}x burst in [{s:.0}s, {:.0}s), deadline {}s",
        trace.len(),
        3.0 * s,
        base.cluster.num_nodes,
        o.burst,
        2.0 * s,
        o.deadline,
    ));
    report.line(format_args!(
        "faulted run adds: worker 1 at {}x service slowdown, link 0\u{2013}1 at {}x through \
         [{s:.0}s, {:.0}s), worker 0 crash/rejoin at {:.0}s/{:.0}s",
        o.straggle,
        o.slow,
        2.5 * s,
        2.05 * s,
        2.1 * s,
    ));

    let base = base.with_slo(Some(OverloadConfig::default()));
    let healthy = run(base.clone(), &trace)?;
    let faulted = run(
        base.with_straggler(Some((1, o.straggle)))
            .with_faults(Some(schedule)),
        &trace,
    )?;
    let (f, h, r) = (&faulted.slo, &healthy.slo, &faulted.faults);
    report.line("\nAdmission / goodput ledger:");
    slo_ledger(report, &[("faulted", &faulted), ("no fault", &healthy)]);
    report.line("\nControl-plane mechanisms (faulted run):");
    report.table(
        &["Mechanism", "count"],
        &[
            cells!["max brownout rung", r.max_brownout_rung],
            cells!["rung transitions", r.brownout_transitions],
            cells!["suspended refreshes (rung 1)", r.suspended_refreshes],
            cells!["brownout recomputes (rung 2)", r.brownout_recomputes],
            cells!["slow links applied", r.slow_links],
            cells!["hedged pulls", r.hedged_pulls],
            cells!["hedge wins", r.hedge_wins],
            cells!["backoff retries", r.backoff_retries],
        ],
    );
    report.line(format_args!(
        "\ngoodput vs no-fault: {}",
        f3(goodput_vs(f, h))
    ));
    report.gate(
        "conservation: submitted == completed + shed + rejected",
        f.conserved() && h.conserved(),
    );
    Ok((healthy, faulted))
}

/// One run of [`meta_failover`].
pub struct MetaRun {
    pub label: &'static str,
    pub stats: RunStats,
    /// Its serving stats equal the fault-free run's, bit for bit.
    pub bitwise: bool,
}

/// What [`meta_failover`] ran and found.
pub struct MetaFailover {
    /// The replica that won the first election, and was killed.
    pub leader: usize,
    pub runs: Vec<MetaRun>,
    pub all_complete: bool,
    pub crash_bitwise: bool,
    pub cut_detours: bool,
    pub epochs_advance: bool,
}

/// `base` over `trace` fault-free, with its meta leader killed and
/// respawned at `crash`, and — given a `cut` window — with the fabric link
/// between workers 0 and 1 also cut. Gates: every request completes, a
/// meta crash leaves serving bitwise unchanged, a cut run detours warm
/// pulls, and failovers re-elect at higher epochs.
pub fn meta_failover(
    report: &mut Report,
    base: EngineConfig,
    trace: &[RankRequest],
    crash: (f64, f64),
    cut: Option<(f64, f64)>,
) -> Result<MetaFailover, String> {
    let (nodes, replicas) = (base.cluster.num_nodes, base.meta_replicas);
    // Probe the seeded group to learn which replica wins the first
    // election, then schedule its crash — the worst case for the meta
    // service.
    let leader = MetaGroup::new(replicas, base.meta_seed)
        .ensure_leader()
        .map_err(|e| format!("meta group cannot elect: {e}"))?;
    let crashed = FaultSchedule::single_meta_crash(nodes, replicas, leader, crash.0, crash.1)
        .map_err(|e| e.to_string())?;
    report.line(format_args!(
        "{} requests on {nodes} workers, {replicas}-replica meta group; leader (replica \
         {leader}) killed at t={:.1}s, respawned at t={:.1}s",
        trace.len(),
        crash.0,
        crash.1,
    ));
    let mut schedules = vec![
        ("fault-free", None),
        ("leader crash", Some(crashed.clone())),
    ];
    if let Some((cut_at, heal_at)) = cut {
        let (a, b) = (WorkerId::new(0), WorkerId::new(1));
        let mut events = crashed.events().to_vec();
        events.push(FaultEvent {
            at_secs: cut_at,
            kind: FaultKind::CutLink { a, b },
        });
        events.push(FaultEvent {
            at_secs: heal_at,
            kind: FaultKind::HealLink { a, b },
        });
        let schedule = FaultSchedule::with_meta_nodes(nodes, replicas, events);
        schedules.push((
            "crash + partition",
            Some(schedule.map_err(|e| e.to_string())?),
        ));
    }

    // Every run keeps `base`'s label: `RunStats.system` is part of the
    // bitwise comparison.
    let serving = |s: &RunStats| {
        let mut s = s.clone();
        s.faults = FaultReport::default();
        s
    };
    let mut runs = Vec::new();
    for (label, schedule) in schedules {
        let stats = run(base.clone().with_faults(schedule), trace)?;
        runs.push(MetaRun {
            label,
            stats,
            bitwise: false,
        });
    }
    let baseline = serving(&runs[0].stats);
    for m in &mut runs {
        m.bitwise = serving(&m.stats) == baseline;
    }
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|m| {
            let (s, r) = (&m.stats, &m.stats.faults);
            let bitwise = match (m.bitwise, r.link_partitions > 0) {
                (true, _) => "yes",
                // Expected: the data plane detoured around the cut link.
                (false, true) => "no (cut)",
                (false, false) => "NO",
            };
            cells![
                m.label,
                format!("{}/{}", s.completed, trace.len()),
                f3(s.hit_rate()),
                f1(s.p99_latency_ms),
                r.meta_elections,
                r.meta_final_epoch,
                r.meta_fenced_appends,
                r.meta_snapshot_installs,
                r.meta_unreachable_leader_elections,
                r.unreachable_kv_fallbacks,
                bitwise,
            ]
        })
        .collect();
    report.line("");
    report.table(
        &[
            "Run", "Done", "Hit", "P99", "Elect", "Epoch", "Fenced", "Snap", "Forced", "Detour",
            "Bitwise",
        ],
        &rows,
    );

    let all_complete = runs.iter().all(|m| m.stats.completed == trace.len());
    // Pure meta faults must be bitwise-invisible; a run with a fabric cut is
    // exempt — its data plane legitimately detours around the link.
    let (cut_runs, meta_runs): (Vec<&MetaRun>, Vec<&MetaRun>) = runs
        .iter()
        .partition(|m| m.stats.faults.link_partitions > 0);
    let crash_bitwise = meta_runs.iter().all(|m| m.bitwise);
    let cut_detours = cut_runs
        .iter()
        .all(|m| m.stats.faults.unreachable_kv_fallbacks >= 1);
    let epochs_advance = runs[1..].iter().all(|m| {
        let r = &m.stats.faults;
        r.meta_final_epoch > 1 && r.meta_elections >= 2
    });
    report.gate("every run completes every request", all_complete);
    report.gate(
        "a meta crash is bitwise-invisible to serving",
        crash_bitwise,
    );
    if cut.is_some() {
        report.gate("the partitioned run detours warm pulls", cut_detours);
    }
    report.gate("failovers re-elect at higher epochs", epochs_advance);
    Ok(MetaFailover {
        leader,
        runs,
        all_complete,
        crash_bitwise,
        cut_detours,
        epochs_advance,
    })
}

/// `base` — its user-cache capacity the hot budget every row shares —
/// replaying one trace of `ds` (seeds 11 / 12) once per `(label, cold
/// tier)` row, so rows differ only in their tier of `cold` bytes.
pub fn tiers(
    report: &mut Report,
    base: &EngineConfig,
    ds: &DatasetConfig,
    (duration, rate): (f64, f64),
    cold: Bytes,
    rows: &[(&str, Option<TiersConfig>)],
) -> Result<Vec<RunStats>, String> {
    let trace = trace(ds, (11, 12), duration, rate);
    report.line(format_args!(
        "Tiered KV pool on {} {} requests (hot {} fixed, cold {cold})",
        trace.len(),
        ds.name,
        base.user_cache_capacity,
    ));
    let mut stats = Vec::new();
    for (_, tiers) in rows {
        stats.push(run(base.clone().with_tiers(tiers.clone()), &trace)?);
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .zip(&stats)
        .map(|((label, _), s)| {
            let t = &s.tiers;
            let user_share = t.user_budget_bytes as f64 / cold.as_u64().max(1) as f64;
            cells![
                label,
                f3(s.hit_rate()),
                t.cold_hits,
                t.demotions,
                t.cold_evictions,
                f3(user_share),
                f1(s.qps()),
                f1(s.p99_latency_ms),
            ]
        })
        .collect();
    let header = [
        "Configuration",
        "Hit rate",
        "Cold hits",
        "Demotions",
        "Cold evict",
        "User share",
        "Goodput",
        "p99 (ms)",
    ];
    report.table(&header, &table);
    Ok(stats)
}

/// `cfg` serving `trace` over the in-process channel oracle, then over each
/// `(transport, child processes)` backend. Gate: every backend lands the
/// oracle's digest — a codec, framing, ordering or retirement bug would
/// change planner-visible counts.
pub fn transports(
    report: &mut Report,
    cfg: &EngineConfig,
    trace: &[RankRequest],
    time_scale: f64,
    backends: &[(TransportKind, bool)],
) -> Result<(), String> {
    // A child process re-executes `batctl`, whose `main` diverts it into
    // the worker loop before it parses arguments, so it needs none.
    let opts = |transport, processes| ServeOptions {
        time_scale,
        transport,
        processes,
        ..ServeOptions::default()
    };
    let oracle = serve(cfg.clone(), opts(TransportKind::Channel, false), trace)?;
    let row = |label: String, s: &RunStats| {
        let matches = if s.digest() == oracle.digest() {
            "yes"
        } else {
            "NO"
        };
        let digest = format!("{:016x}", s.digest());
        cells![
            label,
            s.completed,
            f3(s.hit_rate()),
            f1(s.p99_latency_ms),
            digest,
            matches
        ]
    };
    let mut rows = vec![row("channel threads (oracle)".to_owned(), &oracle)];
    let mut all_match = true;
    for &(kind, processes) in backends {
        let stats = serve(cfg.clone(), opts(kind, processes), trace)?;
        all_match &= stats.digest() == oracle.digest();
        let mode = if processes {
            "child processes"
        } else {
            "threads"
        };
        rows.push(row(format!("{kind:?} {mode}").to_lowercase(), &stats));
    }
    report.table(
        &[
            "transport",
            "completed",
            "hit rate",
            "p99 (ms)",
            "digest",
            "=oracle",
        ],
        &rows,
    );
    report.gate(
        "every transport lands the channel oracle's digest",
        all_match,
    );
    Ok(())
}

/// `base` under a membership `schedule` (drains, joins, crashes) in the
/// simulator and served under `opts`: the schedule, the served run's
/// membership ledger and both digests. Gates: no request is lost, every
/// scheduled drain and join registers, and the served run lands the
/// simulator's digest — churn moves work, it never loses or double-counts
/// a chunk. Returns the served run and whether the digests matched.
pub fn membership(
    report: &mut Report,
    base: EngineConfig,
    schedule: FaultSchedule,
    trace: &[RankRequest],
    opts: ServeOptions,
) -> Result<(RunStats, bool), String> {
    events(report, &schedule);
    let count = |of: fn(&FaultKind) -> bool| {
        let n = schedule.events().iter().filter(|e| of(&e.kind)).count();
        n as u64
    };
    let drains = count(|k| matches!(k, FaultKind::WorkerDrain(_)));
    let joins = count(|k| matches!(k, FaultKind::WorkerJoin(_)));
    let cfg = base.with_faults(Some(schedule));
    let sim = run(cfg.clone(), trace)?;
    let served = serve(cfg, opts, trace)?;
    let (b, s) = (&served.batching, &served.slo);
    report.line("");
    report.table(
        &["Membership ledger", "Value"],
        &[
            cells!["rounds", b.rounds],
            cells!["chunks", b.chunks],
            cells!["drains", b.drains],
            cells!["joins", b.joins],
            cells!["migrated requests", b.migrated_requests],
            cells!["migrated tokens", b.migrated_tokens],
            cells!["batched tokens", b.batched_tokens],
        ],
    );
    let digests_match = sim.digest() == served.digest();
    report.line(format_args!(
        "\nsimulator digest {:016x} / serve digest {:016x}",
        sim.digest(),
        served.digest()
    ));
    let outcomes = served.completed as u64 + s.shed_expired + s.rejected();
    report.gate("no request is lost", outcomes == trace.len() as u64);
    report.gate(
        "every scheduled drain and join registers",
        b.drains == drains && b.joins == joins,
    );
    report.gate("the served run lands the simulator's digest", digests_match);
    Ok((served, digests_match))
}
