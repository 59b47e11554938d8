//! Threaded serving runtime over the pluggable transport layer.
//!
//! The scheduler, workers, and link readers are wired through [`bat_net`]'s
//! [`Transport`] trait: every hello, dispatch, completion and shutdown
//! crosses a [`Conn`] as an encoded frame. The backend is a
//! construction-time choice ([`TransportKind`]):
//!
//! * **Channel** — in-process condvar pipes, the deterministic
//!   oracle. No byte serialization, no sockets; immune to transport bugs
//!   by construction.
//! * **Uds / Tcp** — the same frames over real OS sockets. With
//!   [`ServeOptions::processes`], workers run as **child OS processes**
//!   connected over Unix domain sockets.
//!
//! A worker fails one way on every backend, thread or process: a crash
//! severs its link (after killing its process, if it has one), a drain is
//! the shutdown frame behind its queued frames, and a restart or a join is
//! a fresh worker accepted on the same listener under the link's next
//! incarnation.
//!
//! The scheduler runs the simulator's [`SlotDriver`] on *nominal* arrival
//! times, so every statistic — token accounting, admission decisions,
//! batches, latencies, the fault report — is identical across backends and
//! to the simulator for the same seeded trace; the integration suite pins
//! [`RunStats`] equality between the simulator, the channel oracle and
//! each socket path, including under worker-kill fault schedules.
//!
//! The physical plane retires every round exactly once: a link's rounds go
//! out several to a frame, queued un-acknowledged in send order under the
//! link's connection incarnation, and the link's reader — the one thread
//! that receives on its conn — retires each on its completion (several to
//! a frame too) or the conn going down. Nothing is re-dispatched — the
//! nominal machine already reformed a killed worker's chunks into fresh
//! rounds on the survivors — so work is never dropped and never
//! double-served.
//!
//! Dispatch is coalesced the way a worker coalesces its replies: the
//! scheduler holds the rounds it forms, per link, and writes every held
//! round once the oldest is a pacer granule old, once one link holds 64,
//! or before it blocks — on an arrival's deadline, or on the drained tail
//! (a wait for credit happens inside the write). A scheduler that keeps up
//! therefore writes before every sleep, and one that runs behind writes a
//! granule's rounds at a time instead of one frame per arrival.
//!
//! No thread here polls. Emulated time — the open-loop arrival schedule and
//! the fault schedule — goes through [`crate::pacer`], which blocks only
//! when it is more than a sleep granule ahead of the wall clock. Every
//! other wait is wake-driven: each link's reader blocks in a receive on its
//! conn, and the scheduler's waits for dispatch credit and for the drained
//! tail block on `Progress`, which the readers and the fault supervisor
//! notify. Each of those waits carries the `WATCHDOG`
//! no-progress deadline, so a lost completion fails the run with the
//! worker, incarnation and oldest un-acked sequence number in the message
//! instead of hanging it.

use crate::net_worker::{run_net_worker, CHILD_INDEX_ENV, CHILD_SOCKET_ENV};
use crate::{pacer, MAX_COALESCED};
use bat_net::{
    ChannelTransport, CompletionMsg, Conn, DispatchMsg, HelloMsg, Listener, NetError, ShutdownMsg,
    TcpTransport, Transport, WireCodec,
};
use bat_sim::{
    EngineConfig, FaultKind, FaultSchedule, RequestPlanner, RoundRecord, RunStats, SlotDriver,
};
use bat_types::{BatError, RankRequest};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Which transport backend carries frames between scheduler and workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process condvar pipes — the deterministic oracle.
    #[default]
    Channel,
    /// Unix domain sockets (unix only). Required for
    /// [`ServeOptions::processes`].
    Uds,
    /// Loopback TCP sockets.
    Tcp,
}

/// Options of the threaded runtime.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Wall-clock seconds per simulated second. `1e-3` compresses a
    /// 60-second trace into 60 ms of real sleeping (plus scheduling
    /// overhead); `1.0` runs in real time.
    pub time_scale: f64,
    /// Per-worker dispatch credit: the scheduler stops sending to a worker
    /// holding this many unfinished rounds (backpressure).
    pub queue_depth: usize,
    /// Which backend carries the frames.
    pub transport: TransportKind,
    /// Run each worker as a child OS process connected over a Unix domain
    /// socket (requires [`TransportKind::Uds`]) instead of a thread. The
    /// child re-executes the current binary with
    /// [`ServeOptions::child_args`]; the entry path must call
    /// [`crate::maybe_child_worker`] before doing anything else. A process
    /// fails as a thread does — a crash severs its link, a restart or join
    /// is a fresh worker under the next incarnation — except that the
    /// crash also kills it.
    pub processes: bool,
    /// Arguments passed to the re-executed binary in `processes` mode.
    /// For a `cargo test` binary this is
    /// `[test_fn_name, "--exact", "--test-threads=1", "--quiet"]`, which
    /// re-enters the very test function that spawned the child.
    pub child_args: Vec<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            time_scale: 1e-3,
            queue_depth: 1024,
            transport: TransportKind::Channel,
            processes: false,
            child_args: Vec::new(),
        }
    }
}

/// How long setup waits for a spawned worker (thread or process) to
/// connect back, and a restarted child to rejoin.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(10);

/// Locks `m`, recovering from poisoning as `bat-net`'s pipes do: every
/// update behind these locks is one assignment or one map call, so a holder
/// that panicked left the data whole, and the watchdog report can still read
/// what a link held.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How long a wait may see no progress — no frame retired, no membership
/// change, and none left on the fault schedule — before the run fails.
/// Far above anything a healthy run waits for: one frame's service on the
/// wall clock, or [`ACCEPT_TIMEOUT`] while a child process respawns.
const WATCHDOG: Duration = Duration::from_secs(30);

/// Everything the parent tracks about one worker link.
struct Link {
    /// Connection incarnation + current conn, swapped together under one
    /// lock so an un-acknowledged entry is always tagged with the
    /// incarnation of the conn its frame was actually sent on.
    conn: Mutex<(u64, Option<Arc<dyn Conn>>)>,
    /// Rounds dispatched but not yet retired on this link (backpressure
    /// credit).
    inflight: AtomicU64,
    /// Dispatched-but-unfinished rounds in send order, `(seq, incarnation
    /// of the conn it was sent on)`; retired when that is `≤` a dead
    /// conn's.
    unacked: Mutex<VecDeque<(u64, u64)>>,
    /// Every incarnation below this has had its rounds retired by a dead
    /// conn's reader. Read and written under the `unacked` lock, so no round
    /// is booked on a conn once a reader has retired it: a conn can still
    /// take a write after its reader saw it die (a TCP peer's FIN, or a
    /// channel end closed one direction at a time).
    dead: AtomicU64,
    /// The worker's OS process, in `processes` mode.
    child: Mutex<Option<std::process::Child>>,
}

impl Link {
    fn new() -> Self {
        Link {
            conn: Mutex::new((0, None)),
            inflight: AtomicU64::new(0),
            unacked: Mutex::new(VecDeque::new()),
            dead: AtomicU64::new(0),
            child: Mutex::new(None),
        }
    }

    /// Snapshot of `(incarnation, conn)` for a send.
    fn current(&self) -> (u64, Option<Arc<dyn Conn>>) {
        let g = lock(&self.conn);
        (g.0, g.1.clone())
    }

    /// Makes `conn` the link's conn under the next incarnation (0 for the
    /// first) and returns that incarnation.
    fn install(&self, conn: Arc<dyn Conn>) -> u64 {
        let mut g = lock(&self.conn);
        if g.1.replace(conn).is_some() {
            g.0 += 1;
        }
        g.0
    }

    /// Sends `rounds` as one frame. Every round is registered
    /// un-acknowledged and booked — here and in the run's `outstanding`
    /// count — *before* the send, so a completion can never race past its
    /// own bookkeeping. On a conn its reader has retired nothing is booked,
    /// and on a dead conn every round is rolled back through
    /// [`Link::retire_rounds`] (a round the reader already retired with its
    /// dead conn is not retired twice); either way the result is `false`.
    fn send_rounds(&self, rounds: &[DispatchMsg], outstanding: &AtomicU64) -> bool {
        let (inc, conn) = self.current();
        let mut unacked = lock(&self.unacked);
        if inc < self.dead.load(Ordering::Relaxed) {
            return false;
        }
        unacked.extend(rounds.iter().map(|m| (m.seq, inc)));
        drop(unacked);
        let n = rounds.len() as u64;
        self.inflight.fetch_add(n, Ordering::AcqRel);
        outstanding.fetch_add(n, Ordering::AcqRel);
        let sent = conn.is_some_and(|c| c.send(DispatchMsg::batch_to_frame(rounds)).is_ok());
        if !sent {
            self.retire_rounds(outstanding, rounds.iter().map(|m| m.seq));
        }
        sent
    }

    /// Retires the rounds `seqs` names, each exactly once: whoever takes a
    /// round's un-acked entry does its accounting. It is at the front unless
    /// a restarted worker's replies overtook the old reader's strand.
    fn retire_rounds(&self, outstanding: &AtomicU64, seqs: impl IntoIterator<Item = u64>) {
        let mut unacked = lock(&self.unacked);
        let before = unacked.len();
        for seq in seqs {
            if let Some(i) = unacked.iter().position(|&(s, _)| s == seq) {
                unacked.remove(i);
            }
        }
        let n = (before - unacked.len()) as u64;
        self.inflight.fetch_sub(n, Ordering::AcqRel);
        outstanding.fetch_sub(n, Ordering::Release);
    }

    /// Retires every un-acknowledged round sent on `incarnation` or an
    /// earlier conn; entries sent on a newer conn stay.
    fn retire_stranded(&self, outstanding: &AtomicU64, incarnation: u64) {
        let mut unacked = lock(&self.unacked);
        self.dead.fetch_max(incarnation + 1, Ordering::Relaxed);
        let before = unacked.len();
        unacked.retain(|&(_, inc)| inc > incarnation);
        let n = (before - unacked.len()) as u64;
        self.inflight.fetch_sub(n, Ordering::AcqRel);
        outstanding.fetch_sub(n, Ordering::Release);
    }

    /// Orderly end of the link: the worker gets the shutdown frame behind
    /// whatever it still holds, serves it, and exits.
    fn shut_down(&self) {
        if let (_, Some(conn)) = self.current() {
            let _ = conn.send(ShutdownMsg.to_frame());
        }
    }

    /// A crash: the worker's process, if it has one, is killed, and the
    /// conn is closed, which unblocks the worker and the link's reader
    /// whatever state they are in. The reader then retires every frame the
    /// worker never acknowledged.
    fn sever(&self) {
        if let Some(mut child) = lock(&self.child).take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let (_, Some(conn)) = self.current() {
            conn.close();
        }
    }
}

/// The wake-up edge from the threads that make progress — the readers
/// retiring rounds, the fault supervisor changing membership — to the
/// scheduler's waits.
struct Progress {
    /// Threads blocked in [`Progress::wait`]. Notifiers take this lock
    /// after their update and waiters check their condition under it, so a
    /// wake-up cannot fall between the check and the block.
    waiters: Mutex<usize>,
    cond: Condvar,
    /// True once every scheduled fault has been delivered (from the start
    /// when the schedule is empty): no membership change can end a wait any
    /// more, so a wait that sees nothing move is stuck.
    schedule_delivered: AtomicBool,
    /// True once `SlotDriver::run` has returned and every dispatched round
    /// has retired: a fault still ahead on the schedule has no work left to
    /// act on, and the ledger applied it on nominal time already, so the
    /// supervisor delivers it without waiting for its wall time.
    trace_served: AtomicBool,
    /// The no-progress deadline ([`WATCHDOG`] outside tests).
    patience: Duration,
}

impl Progress {
    fn new(schedule_delivered: bool, patience: Duration) -> Self {
        Progress {
            waiters: Mutex::new(0),
            cond: Condvar::new(),
            schedule_delivered: AtomicBool::new(schedule_delivered),
            trace_served: AtomicBool::new(false),
            patience,
        }
    }

    fn serve_trace(&self) {
        self.trace_served.store(true, Ordering::Release);
        self.notify();
    }

    /// The fault supervisor's wait for an event's wall time: as
    /// [`pacer::sleep_until`], but over once the trace is served.
    fn pace_fault(&self, deadline: Instant) {
        let mut waiters = lock(&self.waiters);
        while !self.trace_served.load(Ordering::Acquire) {
            let Some(lead) = pacer::lead_over(deadline) else {
                return;
            };
            *waiters += 1;
            waiters = self
                .cond
                .wait_timeout(waiters, lead)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            *waiters -= 1;
        }
    }

    fn notify(&self) {
        if *lock(&self.waiters) > 0 {
            self.cond.notify_all();
        }
    }

    fn deliver_schedule(&self) {
        self.schedule_delivered.store(true, Ordering::Release);
        self.notify();
    }

    fn is_schedule_delivered(&self) -> bool {
        self.schedule_delivered.load(Ordering::Acquire)
    }

    /// Blocks until `ready()` holds.
    ///
    /// # Panics
    ///
    /// When `patience` passes without a notify while no fault is left on
    /// the schedule, with a report naming what was waited for and, per
    /// worker, its incarnation and oldest un-acknowledged sequence number.
    fn wait(
        &self,
        links: &[Link],
        waiting_for: std::fmt::Arguments<'_>,
        mut ready: impl FnMut() -> bool,
    ) {
        let mut waiters = lock(&self.waiters);
        while !ready() {
            *waiters += 1;
            let (guard, timeout) = self
                .cond
                .wait_timeout(waiters, self.patience)
                .unwrap_or_else(PoisonError::into_inner);
            waiters = guard;
            *waiters -= 1;
            if timeout.timed_out() && self.is_schedule_delivered() && !ready() {
                let mut report = format!(
                    "serve made no progress for {:?} waiting for {waiting_for}",
                    self.patience
                );
                for (w, link) in links.iter().enumerate() {
                    let unacked = lock(&link.unacked);
                    if let Some((seq, inc)) = unacked.front() {
                        report += &format!(
                            "; worker {w} (incarnation {inc}) holds {} un-acked round(s), \
                             oldest seq {seq}",
                            unacked.len()
                        );
                    }
                }
                drop(waiters);
                panic!("{report}");
            }
        }
    }
}

/// Reads one worker conn until it dies, retiring every round each
/// completion frame names and, when the conn dies, every round still
/// un-acknowledged on its incarnation. A round stranded by a crash is retired
/// exactly once (its un-acked entry is the token: whoever removes it does
/// the decrement) and never re-dispatched: the nominal machine has already
/// reformed the cancelled round's chunks under fresh sequence numbers on
/// the surviving workers. Stream order puts the completions a worker sent
/// before it died ahead of its death.
///
/// # Panics
///
/// Without a fault event scheduled, on a conn that dies before the
/// scheduler's [`Teardown`] — naming the conn's error.
fn run_reader(conn: Arc<dyn Conn>, w: usize, incarnation: u64, cluster: &Cluster) {
    let (link, outstanding) = (&cluster.links[w], &cluster.outstanding);
    let mut replies = Vec::new();
    loop {
        let frame = conn.recv();
        match frame.and_then(|f| CompletionMsg::batch_from_frame(&f, &mut replies)) {
            Ok(()) => link.retire_rounds(outstanding, replies.drain(..).map(|c| c.seq)),
            Err(e) => {
                // A scheduled crash, a drained worker exiting, or the
                // orderly end of the run; anything else is a bug in the
                // plane.
                assert!(
                    cluster.have_faults || cluster.finished.load(Ordering::Acquire),
                    "worker {w} link died without a fault schedule: {e:?}"
                );
                link.retire_stranded(outstanding, incarnation);
                cluster.progress.notify();
                return;
            }
        }
        cluster.progress.notify();
    }
}

/// Spawns one child worker process re-executing the current binary.
fn spawn_child(
    child_args: &[String],
    socket: &str,
    index: usize,
) -> std::io::Result<std::process::Child> {
    let exe = std::env::current_exe()?;
    std::process::Command::new(exe)
        .args(child_args)
        .env(CHILD_SOCKET_ENV, socket)
        .env(CHILD_INDEX_ENV, index.to_string())
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .spawn()
}

/// Monotonic tag making concurrent runs' socket paths unique within one
/// parent process.
fn next_run_tag() -> u64 {
    static TAG: AtomicU64 = AtomicU64::new(0);
    TAG.fetch_add(1, Ordering::Relaxed)
}

/// One run's cluster: the bound endpoints, the worker links, and what the
/// threads working on them share.
struct Cluster {
    transport: Arc<dyn Transport>,
    /// Kept for the whole run so restarted child processes can rejoin.
    listeners: Vec<Box<dyn Listener>>,
    /// The address worker `w` dials.
    dial: Vec<String>,
    links: Vec<Link>,
    /// Whether the run's fault schedule has any event: without one, a dead
    /// link is a bug.
    have_faults: bool,
    /// Raised by [`Teardown`] before it releases the workers, so a reader
    /// does not take an orderly disconnect for a death.
    finished: AtomicBool,
    progress: Progress,
    /// Frames dispatched and not yet retired, over all links: the run has
    /// drained when this is zero.
    outstanding: AtomicU64,
    /// Wall seconds per simulated second, and the wall instant of virtual
    /// time zero.
    scale: f64,
    start: Instant,
}

impl Cluster {
    fn virtual_now(&self) -> f64 {
        self.start.elapsed().as_secs_f64() / self.scale
    }

    /// The handshake for worker `w`: its clock base is the virtual now.
    fn hello(&self, w: usize) -> HelloMsg {
        HelloMsg {
            worker: w as u32,
            scale: self.scale,
            virtual_now: self.virtual_now(),
        }
    }

    /// The wall instant of virtual time `at_secs`.
    fn wall(&self, at_secs: f64) -> Instant {
        self.start + Duration::from_secs_f64(at_secs * self.scale)
    }

    /// Reaps child workers: they exited on shutdown, and the kill is a
    /// no-op backstop for a child that somehow missed it.
    fn reap(&self) {
        for link in &self.links {
            link.sever();
        }
    }

    /// Accepts worker `w`'s conn, sends it the hello, and reads it under
    /// the link's next incarnation.
    fn attach<'scope>(
        &'scope self,
        scope: &'scope thread::Scope<'scope, '_>,
        w: usize,
    ) -> Result<(), NetError> {
        let conn = self.listeners[w].accept_timeout(ACCEPT_TIMEOUT)?;
        conn.send(self.hello(w).to_frame())?;
        let incarnation = self.links[w].install(Arc::clone(&conn));
        scope.spawn(move || run_reader(conn, w, incarnation, self));
        Ok(())
    }
}

/// Ends a run when the scheduler's flow leaves it, normally or by panic:
/// the readers are told first, then every worker gets the shutdown frame —
/// a severed or drained link's send just fails. After a panic every link is
/// severed instead, so that every thread of the scope ends and the panic
/// surfaces instead of a hang.
struct Teardown<'a>(&'a Cluster);

impl Drop for Teardown<'_> {
    fn drop(&mut self) {
        self.0.finished.store(true, Ordering::Release);
        let abort = thread::panicking();
        for link in &self.0.links {
            if abort {
                link.sever();
            } else {
                link.shut_down();
            }
        }
    }
}

/// Whether the scheduler writes the rounds it holds now: the oldest was
/// held at `oldest` (`None`: nothing is held), and it is due once that is a
/// pacer granule ago, once a link holds `most_held` ≥ [`MAX_COALESCED`], or
/// when the scheduler is about to block for `lead` (see
/// [`pacer::lead_at`]).
fn flush_due(
    oldest: Option<Instant>,
    now: Instant,
    most_held: usize,
    lead: Option<Duration>,
) -> bool {
    oldest.is_some_and(|oldest| {
        lead.is_some()
            || most_held >= MAX_COALESCED
            || now.saturating_duration_since(oldest) >= pacer::GRANULE
    })
}

/// The rounds the scheduler has formed and not yet written: each link's in
/// `seq` order, and when the oldest of them was held.
struct Held {
    links: Vec<Vec<DispatchMsg>>,
    since: Option<Instant>,
}

impl Held {
    fn new(links: usize) -> Self {
        Held {
            links: vec![Vec::new(); links],
            since: None,
        }
    }

    /// Holds `rounds`, each behind those already held for its worker.
    fn hold(&mut self, rounds: &[RoundRecord], now: Instant) {
        for r in rounds {
            self.links[r.worker].push(DispatchMsg {
                seq: r.seq,
                arrival_virtual: r.start,
                suffix_tokens: r.tokens,
                service_virtual: r.service_secs,
                deadline_rel: None,
            });
        }
        self.since.get_or_insert(now);
    }

    /// [`flush_due`] on what is held.
    fn is_due(&self, now: Instant, lead: Option<Duration>) -> bool {
        let most_held = self.links.iter().map(Vec::len).max().unwrap_or(0);
        flush_due(self.since, now, most_held, lead)
    }

    fn is_empty(&self) -> bool {
        self.links.iter().all(Vec::is_empty)
    }

    /// Hands each link's held rounds, in order, to `send`, and holds
    /// nothing after.
    fn flush(&mut self, mut send: impl FnMut(usize, &[DispatchMsg])) {
        for (w, rounds) in self.links.iter_mut().enumerate() {
            if !rounds.is_empty() {
                send(w, rounds);
                rounds.clear();
            }
        }
        self.since = None;
    }
}

/// The threaded serving runtime.
///
/// ```
/// use bat_serve::{ServeOptions, ServeRuntime};
/// use bat_sim::{EngineConfig, SystemKind};
/// use bat_types::{ClusterConfig, DatasetConfig, ModelConfig};
/// use bat_workload::{TraceGenerator, Workload};
///
/// let ds = DatasetConfig::games();
/// let cfg = EngineConfig::for_system(
///     SystemKind::Bat,
///     ModelConfig::qwen2_1_5b(),
///     ClusterConfig::a100_4node().with_nodes(2),
///     &ds,
/// );
/// let mut gen = TraceGenerator::new(Workload::new(ds, 1), 2);
/// let trace = gen.generate(1.0, 20.0);
/// let stats = ServeRuntime::new(cfg, ServeOptions::default())
///     .expect("preset configs validate")
///     .serve(&trace);
/// assert_eq!(stats.completed, trace.len());
/// ```
pub struct ServeRuntime {
    cfg: EngineConfig,
    opts: ServeOptions,
}

impl ServeRuntime {
    /// Builds a runtime from a validated engine configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineConfig::validate`] failures (a straggler is
    /// [`EngineConfig::straggler`]), and rejects non-positive time scales,
    /// zero queue depths, and transport combinations this platform cannot run
    /// (`processes` without [`TransportKind::Uds`]; any socket backend
    /// requirement the OS lacks).
    pub fn new(cfg: EngineConfig, opts: ServeOptions) -> Result<Self, BatError> {
        cfg.validate()?;
        if opts.time_scale <= 0.0 || !opts.time_scale.is_finite() {
            return Err(BatError::InvalidConfig(format!(
                "time_scale must be a finite number of wall seconds per \
                 simulated second in (0, ∞); got {}",
                opts.time_scale
            )));
        }
        if opts.queue_depth == 0 {
            return Err(BatError::InvalidConfig(
                "queue_depth (per-worker dispatch credits) must be ≥ 1; got 0".to_owned(),
            ));
        }
        if opts.processes && opts.transport != TransportKind::Uds {
            return Err(BatError::InvalidConfig(format!(
                "processes = true requires transport = Uds \
                 (child workers dial back over Unix sockets); got {:?}",
                opts.transport
            )));
        }
        if cfg!(not(unix)) && opts.transport == TransportKind::Uds {
            return Err(BatError::InvalidConfig(
                "transport = Uds requires a unix platform; use Channel or Tcp here".to_owned(),
            ));
        }
        Ok(ServeRuntime { cfg, opts })
    }

    /// The engine configuration this runtime serves.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Builds the configured transport backend.
    fn transport(&self) -> Arc<dyn Transport> {
        match self.opts.transport {
            TransportKind::Channel => Arc::new(ChannelTransport::new()),
            TransportKind::Tcp => Arc::new(TcpTransport::new()),
            #[cfg(unix)]
            TransportKind::Uds => Arc::new(bat_net::UdsTransport::new()),
            #[cfg(not(unix))]
            TransportKind::Uds => unreachable!("rejected by ServeRuntime::new"),
        }
    }

    /// The listen address for worker `w` on the configured backend.
    fn listen_addr(&self, run_tag: u64, w: usize) -> String {
        match self.opts.transport {
            TransportKind::Channel => format!("worker-{w}"),
            TransportKind::Tcp => "127.0.0.1:0".to_owned(),
            TransportKind::Uds => std::env::temp_dir()
                .join(format!(
                    "bat-serve-{}-{run_tag}-{w}.sock",
                    std::process::id()
                ))
                .to_string_lossy()
                .into_owned(),
        }
    }

    /// Binds every worker's endpoint and builds the run's [`Cluster`].
    fn bind(&self) -> Cluster {
        let n_workers = self.cfg.cluster.num_nodes;
        let transport = self.transport();
        let run_tag = next_run_tag();
        let listeners: Vec<Box<dyn Listener>> = (0..n_workers)
            .map(|w| {
                transport
                    .listen(&self.listen_addr(run_tag, w))
                    .expect("transport endpoint binds")
            })
            .collect();
        let have_faults = self.cfg.faults.as_ref().is_some_and(|s| !s.is_empty());
        Cluster {
            transport,
            dial: listeners.iter().map(|l| l.local_addr()).collect(),
            listeners,
            links: (0..n_workers).map(|_| Link::new()).collect(),
            have_faults,
            finished: AtomicBool::new(false),
            progress: Progress::new(!have_faults, WATCHDOG),
            outstanding: AtomicU64::new(0),
            scale: self.opts.time_scale,
            start: Instant::now(),
        }
    }

    /// Starts worker `w`: a child process dialing back over UDS, or an
    /// in-process thread running the identical loop over the configured
    /// transport. Start, restart and join all spawn here, and
    /// [`Cluster::attach`] then wires the worker in.
    fn spawn_worker<'scope>(
        &'scope self,
        scope: &'scope thread::Scope<'scope, '_>,
        cluster: &'scope Cluster,
        w: usize,
    ) -> std::io::Result<()> {
        let addr = &cluster.dial[w];
        if self.opts.processes {
            let child = spawn_child(&self.opts.child_args, addr, w)?;
            *lock(&cluster.links[w].child) = Some(child);
        } else {
            scope.spawn(move || {
                let served = cluster.transport.connect(addr);
                if let Err(e) = served.and_then(|conn| run_net_worker(conn.as_ref())) {
                    eprintln!("worker {w} ({addr}): {e}");
                }
            });
        }
        Ok(())
    }

    /// Brings the cluster up inside `scope`: spawns every worker, then
    /// accepts each one, sends it the [`HelloMsg`] handshake and attaches
    /// its reader; then starts the fault supervisor on the schedule (the
    /// empty one when none is configured).
    ///
    /// The supervisor walks the fault schedule in scaled wall-clock time,
    /// making membership events physically real, the same way for threads
    /// and processes: a crash severs the worker's link (SIGKILL first for a
    /// process); a drain stops new seating and sends the shutdown frame
    /// behind what the worker holds, which it serves before exiting; a
    /// restart or a join spawns a fresh worker and accepts it on the same
    /// listener under the link's next incarnation. All *accounting* for
    /// these events lives in the planner and the batch machine, driven on
    /// nominal time — that thread only touches the world.
    fn start<'scope>(
        &'scope self,
        scope: &'scope thread::Scope<'scope, '_>,
        cluster: &'scope Cluster,
    ) {
        for w in 0..cluster.links.len() {
            self.spawn_worker(scope, cluster, w).expect("worker spawns");
        }
        for w in 0..cluster.links.len() {
            cluster
                .attach(scope, w)
                .expect("worker connects back during setup");
        }
        let none = || FaultSchedule::none(self.cfg.cluster.num_nodes);
        let schedule = self.cfg.faults.clone().unwrap_or_else(none);
        scope.spawn(move || {
            for event in schedule.events() {
                cluster.progress.pace_fault(cluster.wall(event.at_secs));
                match event.kind {
                    FaultKind::WorkerCrash(w) => cluster.links[w.index()].sever(),
                    // Planned departure: the machine stops seating new
                    // work, and the worker finishes what it already holds;
                    // its conn closing then retires anything it never
                    // processed.
                    FaultKind::WorkerDrain(w) => cluster.links[w.index()].shut_down(),
                    FaultKind::WorkerRestart(w) | FaultKind::WorkerJoin(w) => {
                        let w = w.index();
                        let rejoined = self
                            .spawn_worker(scope, cluster, w)
                            .map_err(NetError::from)
                            .and_then(|()| cluster.attach(scope, w));
                        if let Err(e) = rejoined {
                            eprintln!("worker {w} rejoin failed: {e}");
                        }
                    }
                    // Link, partition and meta faults have no thread-level
                    // effect; the planner (which hosts the replicated meta
                    // group and the reachability matrix) prices/plans them on
                    // nominal time. Slowed links included: hedged pulls and
                    // backoff retries are planner decisions, not thread ones.
                    FaultKind::LinkDegrade { .. }
                    | FaultKind::LinkRestore
                    | FaultKind::MetaStall { .. }
                    | FaultKind::MetaCrash(_)
                    | FaultKind::MetaRestart(_)
                    | FaultKind::CutLink { .. }
                    | FaultKind::HealLink { .. }
                    | FaultKind::SlowLink { .. } => {}
                }
                cluster.progress.notify();
            }
            cluster.progress.deliver_schedule();
        });
    }

    /// Serves a trace to completion and returns aggregate statistics.
    ///
    /// The whole nominal plane — admission, planning, the batch machine,
    /// the fault schedule's effect on membership, the whole ledger — is the
    /// [`SlotDriver`] the simulator runs, so the returned [`RunStats`] —
    /// digest, latencies, sheds — is bit-identical to the simulator's for
    /// the same trace at any worker count, transport and fault schedule. This function is the physical
    /// plane only: it paces arrivals on the wall clock, puts every round the
    /// driver forms on the wire to the round's worker under per-link credit,
    /// several to a frame (see the module docs; workers pace the round's
    /// priced service and ack it), and waits out the tail.
    ///
    /// The two planes never share state. A round frame lost to a physical
    /// kill is simply retired after its link dies: the machine has already
    /// cancelled that round at the scheduled crash time by generation
    /// fencing and reformed its chunks into fresh rounds on the survivors,
    /// so physical loss never touches the ledger.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival time, if a worker
    /// fails to connect during setup, or if the run makes no progress for
    /// the watchdog interval (the message names each worker's incarnation
    /// and oldest un-acknowledged frame).
    pub fn serve(&self, trace: &[RankRequest]) -> RunStats {
        for w in trace.windows(2) {
            assert!(
                w[1].arrival >= w[0].arrival,
                "trace must be sorted by arrival"
            );
        }
        let mut planner = RequestPlanner::from_config(&self.cfg);
        let driver = SlotDriver::new(&self.cfg, &mut planner);
        let cluster = &self.bind();
        let queue_depth = self.opts.queue_depth as u64;
        let (links, progress) = (cluster.links.as_slice(), &cluster.progress);
        let outstanding = &cluster.outstanding;

        let stats = thread::scope(|scope| {
            self.start(scope, cluster);
            let teardown = Teardown(cluster);
            // A link's held rounds go out in order as one frame under
            // per-link inflight credit (more than the credit left are sent
            // in as many frames as it takes). Under a fault schedule a dead
            // link is survivable: its rounds are rolled back and simply not
            // sent.
            let send = |w: usize, rounds: &[DispatchMsg]| {
                let link = &links[w];
                let mut rest = rounds;
                while !rest.is_empty() {
                    let credit =
                        || queue_depth.saturating_sub(link.inflight.load(Ordering::Acquire));
                    progress.wait(links, format_args!("credit on worker {w}"), || credit() > 0);
                    let (batch, later) = rest.split_at(rest.len().min(credit() as usize));
                    rest = later;
                    let sent = link.send_rounds(batch, outstanding);
                    assert!(
                        sent || cluster.have_faults,
                        "worker {w} link died without a fault schedule"
                    );
                }
            };
            let held = RefCell::new(Held::new(links.len()));
            let hold_rounds = |rounds: &[RoundRecord]| {
                let mut held = held.borrow_mut();
                let now = Instant::now();
                held.hold(rounds, now);
                if held.is_due(now, None) {
                    held.flush(send);
                }
            };
            // Open-loop pacing in scaled wall time: rounds form and go out
            // as their admitting arrivals come due, so the physical run
            // overlaps execution with the trace replay. An arrival that
            // forms no round still ends a granule's hold, and nothing held
            // waits out a sleep.
            let pace = |nominal: f64| {
                let deadline = cluster.wall(nominal);
                let now = Instant::now();
                let lead = pacer::lead_at(deadline, now);
                let mut held = held.borrow_mut();
                if held.is_due(now, lead) {
                    held.flush(send);
                }
                if lead.is_some() {
                    pacer::sleep_until(deadline);
                }
            };
            let (stats, _) = driver.run(trace, pace, hold_rounds);
            let mut held = held.into_inner();
            held.flush(send);
            debug_assert!(held.is_empty(), "a round is held into the tail wait");
            // Wait out the physical tail, then the supervisor (so a late
            // respawned child still gets its shutdown frame), which no
            // longer paces, and release the cluster.
            progress.wait(
                links,
                format_args!("the dispatched rounds to finish"),
                || outstanding.load(Ordering::Acquire) == 0,
            );
            progress.serve_trace();
            progress.wait(links, format_args!("the fault schedule's delivery"), || {
                progress.is_schedule_delivered()
            });
            drop(teardown);
            stats
        });
        cluster.reap();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_sim::{ServingEngine, SystemKind};
    use bat_types::{Bytes, ClusterConfig, DatasetConfig, ModelConfig};
    use bat_workload::{TraceGenerator, Workload};

    fn small_cluster() -> ClusterConfig {
        let mut c = ClusterConfig::a100_4node();
        c.num_nodes = 2;
        c.node.kv_cache_capacity = Bytes::from_gb(20);
        c
    }

    fn config(kind: SystemKind, ds: &DatasetConfig) -> EngineConfig {
        EngineConfig::for_system(kind, ModelConfig::qwen2_1_5b(), small_cluster(), ds)
    }

    fn trace(ds: &DatasetConfig, secs: f64, rate: f64) -> Vec<RankRequest> {
        let mut g = TraceGenerator::new(Workload::new(ds.clone(), 11), 12);
        g.generate(secs, rate)
    }

    fn options_for(kind: TransportKind) -> ServeOptions {
        ServeOptions {
            transport: kind,
            ..ServeOptions::default()
        }
    }

    fn round(seq: u64) -> DispatchMsg {
        DispatchMsg {
            seq,
            arrival_virtual: 0.0,
            suffix_tokens: 10,
            service_virtual: 1e-3,
            deadline_rel: None,
        }
    }

    /// Every round of the one dispatch frame `conn` receives next.
    fn rounds_of_next_frame(conn: &dyn Conn) -> Vec<DispatchMsg> {
        let mut rounds = Vec::new();
        DispatchMsg::batch_from_frame(&conn.recv().unwrap(), &mut rounds).unwrap();
        rounds
    }

    #[test]
    fn failed_batch_rolls_every_frame_back_exactly_once() {
        let link = Link::new();
        let (ours, theirs) = bat_net::ChannelConn::pair();
        *lock(&link.conn) = (3, Some(ours as Arc<dyn Conn>));
        let outstanding = AtomicU64::new(0);
        let counters = |link: &Link| {
            (
                lock(&link.unacked).len(),
                link.inflight.load(Ordering::Acquire),
                outstanding.load(Ordering::Acquire),
            )
        };

        // A live peer: the batch is booked, arrives in order as one frame,
        // and each round retires once however often its ack is replayed.
        let batch: Vec<DispatchMsg> = (0..4).map(round).collect();
        assert!(link.send_rounds(&batch, &outstanding));
        assert_eq!(counters(&link), (4, 4, 4));
        assert_eq!(rounds_of_next_frame(theirs.as_ref()), batch);
        assert_eq!(theirs.try_recv(), Ok(None), "one frame per batch");
        for m in &batch {
            link.retire_rounds(&outstanding, [m.seq, m.seq]);
            link.retire_rounds(&outstanding, [m.seq]);
        }
        assert_eq!(counters(&link), (0, 0, 0));

        // The peer dies: the whole batch is rolled back, so neither the
        // reader's `Down` nor a straggling ack finds anything to retire a
        // second time.
        drop(theirs);
        let batch: Vec<DispatchMsg> = (4..9).map(round).collect();
        assert!(!link.send_rounds(&batch, &outstanding));
        assert_eq!(counters(&link), (0, 0, 0));
        link.retire_stranded(&outstanding, 3);
        link.retire_rounds(&outstanding, [4]);
        assert_eq!(counters(&link), (0, 0, 0));

        // A conn can still take a write after its reader retired it (a TCP
        // peer's FIN, a channel end closed one direction at a time): nothing
        // is booked on it, or no reader would ever retire the booking.
        let (ours, theirs) = bat_net::ChannelConn::pair();
        *lock(&link.conn) = (3, Some(ours as Arc<dyn Conn>));
        assert!(!link.send_rounds(&batch, &outstanding));
        assert_eq!(counters(&link), (0, 0, 0));
        assert_eq!(theirs.try_recv(), Ok(None));
    }

    #[test]
    fn restart_race_retires_every_round_exactly_once() {
        // Rounds are un-acked on incarnations 0 and 1, and incarnation 1's
        // completion frame is retired before incarnation 0's reader has
        // retired its strand: those completions sit behind the strand in
        // the queue.
        let ds = DatasetConfig::games();
        let cluster = &ServeRuntime::new(config(SystemKind::Bat, &ds), ServeOptions::default())
            .unwrap()
            .bind();
        // No fault schedule: a finished run takes a conn's end as orderly.
        cluster.finished.store(true, Ordering::Release);
        let (link, outstanding) = (&cluster.links[0], &cluster.outstanding);
        let (old, old_worker) = bat_net::ChannelConn::pair();
        link.install(Arc::clone(&old) as Arc<dyn Conn>);
        let stranded: Vec<DispatchMsg> = (0..3).map(round).collect();
        assert!(link.send_rounds(&stranded, outstanding));
        let (new, new_worker) = bat_net::ChannelConn::pair();
        assert_eq!(link.install(Arc::clone(&new) as Arc<dyn Conn>), 1);
        let fresh: Vec<DispatchMsg> = (3..7).map(round).collect();
        assert!(link.send_rounds(&fresh, outstanding));
        assert_eq!(outstanding.load(Ordering::Acquire), 7);
        let replies: Vec<CompletionMsg> = rounds_of_next_frame(new_worker.as_ref())
            .iter()
            .map(|m| CompletionMsg {
                worker: 0,
                seq: m.seq,
                suffix_tokens: m.suffix_tokens,
                outcome: bat_net::WireOutcome::Shed,
            })
            .collect();
        thread::scope(|scope| {
            let reader = scope.spawn(move || run_reader(new, 0, 1, cluster));
            let frame = CompletionMsg::batch_to_frame(&replies);
            new_worker.send(frame).unwrap();
            let strand_left = || outstanding.load(Ordering::Acquire) == 3;
            cluster
                .progress
                .wait(&cluster.links, format_args!("incarnation 1"), strand_left);
            let left: Vec<(u64, u64)> = lock(&link.unacked).iter().copied().collect();
            assert_eq!(left, [(0, 0), (1, 0), (2, 0)]);
            // Incarnation 0's reader sees its conn die, then incarnation 1's.
            drop(old_worker);
            run_reader(old, 0, 0, cluster);
            drop(new_worker);
            reader.join().unwrap();
        });
        // A replayed completion finds nothing left to retire.
        link.retire_rounds(outstanding, 0..7);
        assert!(lock(&link.unacked).is_empty());
        assert_eq!(link.inflight.load(Ordering::Acquire), 0);
        assert_eq!(outstanding.load(Ordering::Acquire), 0);
    }

    #[test]
    fn held_rounds_are_due_at_a_granule_at_64_or_before_a_block() {
        // The rule reads no clock, so each row holds however loaded the
        // machine is.
        let t0 = Instant::now();
        let g = pacer::GRANULE;
        let (block, no_block) = (
            pacer::lead_at(t0 + 2 * g, t0),
            pacer::lead_at(t0 + g / 2, t0),
        );
        assert!(block.is_some() && no_block.is_none());
        let max = MAX_COALESCED;
        // (oldest held, now, most held on one link, lead, due)
        let rows = [
            (None, t0 + 5 * g, max, block, false),
            (Some(t0), t0, 1, None, false),
            (Some(t0), t0 + g / 2, max - 1, no_block, false),
            (Some(t0 + g), t0, 1, None, false),
            (Some(t0), t0 + g, 1, None, true),
            (Some(t0), t0 + 3 * g, 1, None, true),
            (Some(t0), t0, max, None, true),
            (Some(t0), t0, 4 * max, None, true),
            (Some(t0), t0, 1, block, true),
        ];
        for (row, (oldest, now, most_held, lead, due)) in rows.into_iter().enumerate() {
            assert_eq!(flush_due(oldest, now, most_held, lead), due, "row {row}");
        }
    }

    #[test]
    fn held_rounds_all_go_out_before_the_tail_wait() {
        // At 1e-6 the whole trace arrives within a few milliseconds, so the
        // scheduler runs behind it and holds rounds across arrivals; every
        // one still reaches its worker (the tail wait asserts nothing is
        // held in a debug build), and the run is the simulator's.
        let ds = DatasetConfig {
            num_users: 300,
            ..DatasetConfig::games()
        };
        let t = trace(&ds, 2.0, 200.0);
        let cfg =
            config(SystemKind::Bat, &ds).with_batching(Some(bat_sim::BatchingConfig::default()));
        let opts = ServeOptions {
            time_scale: 1e-6,
            ..ServeOptions::default()
        };
        let served = ServeRuntime::new(cfg.clone(), opts).unwrap().serve(&t);
        assert_eq!(served.completed, t.len());
        assert_eq!(served, ServingEngine::new(cfg).unwrap().run(&t));
    }

    #[test]
    fn progress_wait_is_woken_by_a_notify() {
        let progress = Progress::new(true, Duration::from_secs(30));
        let flag = AtomicBool::new(false);
        thread::scope(|scope| {
            scope.spawn(|| {
                flag.store(true, Ordering::Release);
                progress.notify();
            });
            progress.wait(&[], format_args!("the flag"), || {
                flag.load(Ordering::Acquire)
            });
        });
    }

    #[test]
    fn stuck_wait_names_worker_incarnation_and_oldest_unacked_seq() {
        let links = [Link::new(), Link::new()];
        lock(&links[1].unacked).extend([(17, 2), (23, 2)]);
        // While faults are still due a quiet wait is not stuck: the wait
        // sits through two deadlines, and panics at the first one after the
        // schedule has been delivered (here by its own third poll).
        let progress = Progress::new(false, Duration::from_millis(10));
        let mut polls = 0;
        let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            progress.wait(&links, format_args!("credit on worker 1"), || {
                polls += 1;
                if polls == 3 {
                    progress.schedule_delivered.store(true, Ordering::Release);
                }
                false
            });
        }))
        .expect_err("a stuck wait must fail the run");
        assert_eq!(polls, 4);
        let report = report
            .downcast_ref::<String>()
            .expect("panics with a report");
        assert!(
            report.contains("waiting for credit on worker 1")
                && report
                    .contains("worker 1 (incarnation 2) holds 2 un-acked round(s), oldest seq 17")
                && !report.contains("worker 0"),
            "{report}"
        );
    }

    #[test]
    fn a_link_that_dies_without_a_schedule_names_its_error() {
        // A frame type no worker sends kills the conn; in a run without a
        // fault schedule that is a bug, and the reader says which error. No
        // schedule and the empty one are the same run.
        let ds = DatasetConfig::games();
        let cfg = config(SystemKind::Bat, &ds);
        let empty = FaultSchedule::none(cfg.cluster.num_nodes);
        for faults in [None, Some(empty)] {
            let cfg = cfg.clone().with_faults(faults.clone());
            let cluster = ServeRuntime::new(cfg, ServeOptions::default())
                .unwrap()
                .bind();
            let (ours, theirs) = bat_net::ChannelConn::pair();
            theirs.send(bat_net::Frame::new(200, vec![])).unwrap();
            let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_reader(ours, 1, 0, &cluster);
            }))
            .expect_err("a dead link without a schedule must fail the run");
            let report = report
                .downcast_ref::<String>()
                .expect("panics with a report");
            assert!(
                report.contains("worker 1 link died") && report.contains("UnknownMsgType(200)"),
                "{faults:?}: {report}"
            );
        }
    }

    #[test]
    fn serves_all_requests() {
        let ds = DatasetConfig::games();
        let t = trace(&ds, 2.0, 20.0);
        let rt = ServeRuntime::new(config(SystemKind::Bat, &ds), ServeOptions::default()).unwrap();
        let stats = rt.serve(&t);
        assert_eq!(stats.completed, t.len());
        assert!(stats.p99_latency_ms > 0.0);
    }

    #[test]
    fn tcp_transport_serves_all_requests() {
        let ds = DatasetConfig::games();
        let t = trace(&ds, 1.0, 20.0);
        let rt = ServeRuntime::new(
            config(SystemKind::Bat, &ds),
            options_for(TransportKind::Tcp),
        )
        .unwrap();
        let stats = rt.serve(&t);
        assert_eq!(stats.completed, t.len());
    }

    #[cfg(unix)]
    #[test]
    fn uds_transport_matches_channel_digest() {
        // The determinism pin in miniature (the full cross-backend +
        // child-process version lives in tests/integration_transport.rs):
        // planner-side stats must be bitwise identical across backends.
        let ds = DatasetConfig {
            num_users: 300,
            ..DatasetConfig::games()
        };
        let t = trace(&ds, 2.0, 30.0);
        let channel =
            ServeRuntime::new(config(SystemKind::UserPrefix, &ds), ServeOptions::default())
                .unwrap()
                .serve(&t);
        let uds = ServeRuntime::new(
            config(SystemKind::UserPrefix, &ds),
            options_for(TransportKind::Uds),
        )
        .unwrap()
        .serve(&t);
        assert_eq!(channel.digest(), uds.digest());
        assert_eq!(channel, uds);
    }

    #[test]
    fn cache_accounting_matches_simulator() {
        // Same driver, same trace → the threaded runtime's run is the
        // DES's, token accounting, latencies and all.
        let ds = DatasetConfig {
            num_users: 300,
            ..DatasetConfig::games()
        };
        let t = trace(&ds, 3.0, 30.0);
        let mut sim = ServingEngine::new(config(SystemKind::UserPrefix, &ds)).unwrap();
        let sim_stats = sim.run(&t);
        let rt = ServeRuntime::new(config(SystemKind::UserPrefix, &ds), ServeOptions::default())
            .unwrap();
        let rt_stats = rt.serve(&t);
        assert_eq!(rt_stats.reused_tokens, sim_stats.reused_tokens);
        assert_eq!(rt_stats, sim_stats);
    }

    #[test]
    fn item_refresh_interval_is_honoured_like_the_simulator() {
        // The background hot-item re-replication moves items between the
        // replicated and the sharded area, which changes what a request
        // reuses locally and pulls remotely.
        let ds = DatasetConfig {
            num_users: 300,
            ..DatasetConfig::games()
        };
        let t = trace(&ds, 4.0, 20.0);
        let mut cfg = config(SystemKind::Bat, &ds);
        cfg.item_refresh_interval_secs = Some(0.5);
        let sim_stats = ServingEngine::new(cfg.clone()).unwrap().run(&t);
        let rt_stats = ServeRuntime::new(cfg.clone(), ServeOptions::default())
            .unwrap()
            .serve(&t);
        assert_eq!(rt_stats.remote_bytes, sim_stats.remote_bytes);
        assert_eq!(rt_stats, sim_stats);
        // And the refresh is not a no-op on this trace.
        cfg.item_refresh_interval_secs = None;
        let unrefreshed = ServingEngine::new(cfg).unwrap().run(&t);
        assert_ne!(unrefreshed.digest(), sim_stats.digest());
    }

    #[test]
    fn tiered_pool_matches_simulator_across_thread_counts() {
        // The serve-side tiered pool and the simulator's pool are the same
        // decision core driven on nominal arrival times, so every
        // hit/miss/demotion — and therefore the whole tier ledger and the
        // stats digest — must agree bitwise at any worker-thread count.
        let ds = DatasetConfig {
            num_users: 300,
            ..DatasetConfig::games()
        };
        let t = trace(&ds, 2.0, 30.0);
        for nodes in [1usize, 2, 4, 8] {
            let mut cluster = small_cluster();
            cluster.num_nodes = nodes;
            let cfg =
                EngineConfig::for_system(SystemKind::Bat, ModelConfig::qwen2_1_5b(), cluster, &ds)
                    .with_tiers(Some(bat_sim::TiersConfig::new(Bytes::from_gb(4))));
            let sim_stats = ServingEngine::new(cfg.clone()).unwrap().run(&t);
            let rt_stats = ServeRuntime::new(cfg, ServeOptions::default())
                .unwrap()
                .serve(&t);
            assert_eq!(
                sim_stats.tiers, rt_stats.tiers,
                "tier ledger diverged at {nodes} worker threads"
            );
            assert!(
                rt_stats.tiers.lookups() > 0,
                "the pool must actually be exercised"
            );
            assert_eq!(
                sim_stats.digest(),
                rt_stats.digest(),
                "stats digest diverged at {nodes} worker threads"
            );
        }
    }

    #[test]
    fn cache_accounting_matches_simulator_under_faults() {
        // The same fault schedule drives both engines through identical
        // planner and machine states (the fault cursor advances on nominal
        // time in both), so the run — cache accounting, the fault report
        // itself, latencies — must agree bit-for-bit even though this
        // runtime kills and respawns real workers.
        let ds = DatasetConfig {
            num_users: 300,
            ..DatasetConfig::games()
        };
        let t = trace(&ds, 4.0, 30.0);
        let schedule =
            bat_sim::FaultSchedule::single_crash(2, bat_types::WorkerId::new(1), 1.0, 2.5).unwrap();
        let cfg = |s: &bat_sim::FaultSchedule| {
            config(SystemKind::UserPrefix, &ds).with_faults(Some(s.clone()))
        };
        let sim_stats = ServingEngine::new(cfg(&schedule)).unwrap().run(&t);
        let rt_stats = ServeRuntime::new(cfg(&schedule), ServeOptions::default())
            .unwrap()
            .serve(&t);
        assert_eq!(rt_stats.completed, t.len(), "faults must never drop work");
        assert_eq!(rt_stats.faults, sim_stats.faults);
        assert!(!rt_stats.faults.is_quiet(), "the crash must be observed");
        assert_eq!(rt_stats, sim_stats);
    }

    #[test]
    fn a_crashed_thread_is_severed_and_rejoins_like_a_child() {
        // A worker thread fails as a child process does: the crash closes
        // its link, the link's reader retires every frame the worker never
        // acknowledged, exactly once, and the restart is a fresh worker
        // accepted under incarnation 1.
        let ds = DatasetConfig {
            num_users: 300,
            ..DatasetConfig::games()
        };
        let schedule =
            bat_sim::FaultSchedule::single_crash(2, bat_types::WorkerId::new(1), 1.0, 2.5).unwrap();
        let cfg = config(SystemKind::Bat, &ds).with_faults(Some(schedule));
        let rt = ServeRuntime::new(cfg.clone(), ServeOptions::default()).unwrap();
        let cluster = &rt.bind();
        let (link, outstanding) = (&cluster.links[1], &cluster.outstanding);
        let counters = || {
            (
                lock(&link.unacked).len(),
                link.inflight.load(Ordering::Acquire),
                outstanding.load(Ordering::Acquire),
            )
        };
        // No supervisor runs here, so a wait that sees nothing move fails.
        cluster.progress.deliver_schedule();
        let drained = || {
            let none_outstanding = || outstanding.load(Ordering::Acquire) == 0;
            cluster
                .progress
                .wait(&cluster.links, format_args!("the rounds"), none_outstanding);
        };
        thread::scope(|scope| {
            for w in 0..2 {
                rt.spawn_worker(scope, cluster, w).unwrap();
            }
            for w in 0..2 {
                cluster.attach(scope, w).unwrap();
            }
            let teardown = Teardown(cluster);
            // Each round is 50 ms of wall time: the worker is still pacing
            // the first when its link is severed.
            let slow: Vec<DispatchMsg> = (0..4)
                .map(|seq| DispatchMsg {
                    service_virtual: 50.0,
                    ..round(seq)
                })
                .collect();
            assert!(link.send_rounds(&slow, outstanding));
            link.sever();
            drained();
            assert_eq!(counters(), (0, 0, 0));
            link.retire_rounds(outstanding, slow.iter().map(|m| m.seq));
            link.retire_stranded(outstanding, 0);
            assert_eq!(counters(), (0, 0, 0), "a round retired twice");
            assert!(!link.send_rounds(&[round(4)], outstanding));
            assert_eq!(counters(), (0, 0, 0));

            rt.spawn_worker(scope, cluster, 1).unwrap();
            cluster.attach(scope, 1).unwrap();
            assert_eq!(link.current().0, 1);
            let fast: Vec<DispatchMsg> = (5..9).map(round).collect();
            assert!(link.send_rounds(&fast, outstanding));
            drained();
            assert_eq!(counters(), (0, 0, 0));
            drop(teardown);
        });
        // And a whole run over that crash and restart is the simulator's.
        let t = trace(&ds, 4.0, 30.0);
        assert_eq!(rt.serve(&t), ServingEngine::new(cfg).unwrap().run(&t));
    }

    #[test]
    fn recompute_runtime_reuses_nothing() {
        let ds = DatasetConfig::games();
        let t = trace(&ds, 1.0, 20.0);
        let rt =
            ServeRuntime::new(config(SystemKind::Recompute, &ds), ServeOptions::default()).unwrap();
        let stats = rt.serve(&t);
        assert_eq!(stats.reused_tokens, 0);
        assert_eq!(stats.completed, t.len());
    }

    #[test]
    fn rejects_bad_options() {
        let ds = DatasetConfig::games();
        assert!(ServeRuntime::new(
            config(SystemKind::Bat, &ds),
            ServeOptions {
                time_scale: 0.0,
                queue_depth: 8,
                ..ServeOptions::default()
            }
        )
        .is_err());
        assert!(ServeRuntime::new(
            config(SystemKind::Bat, &ds),
            ServeOptions {
                queue_depth: 0,
                ..ServeOptions::default()
            }
        )
        .is_err());
        // Child processes require the Uds transport.
        assert!(ServeRuntime::new(
            config(SystemKind::Bat, &ds),
            ServeOptions {
                processes: true,
                transport: TransportKind::Channel,
                ..ServeOptions::default()
            }
        )
        .is_err());
        assert!(ServeRuntime::new(
            config(SystemKind::Bat, &ds),
            ServeOptions {
                processes: true,
                transport: TransportKind::Tcp,
                ..ServeOptions::default()
            }
        )
        .is_err());
    }

    #[test]
    fn straggler_worker_is_routed_around() {
        let ds = DatasetConfig::games();
        let t = trace(&ds, 2.0, 60.0);
        // A run's latencies are the nominal ones the rounds were priced and
        // paced at — virtual time, the same on an idle host and a loaded
        // one — while the rounds themselves still cross the transport and
        // are waited out by the workers' pacers.
        let serve = |straggler| {
            let cfg = config(SystemKind::Bat, &ds)
                .with_batching(Some(bat_sim::BatchingConfig::default()))
                .with_straggler(straggler);
            let stats = ServeRuntime::new(cfg, ServeOptions::default())
                .unwrap()
                .serve(&t);
            assert_eq!(stats.completed, t.len(), "no work is lost");
            stats
        };
        let healthy = serve(None);
        let degraded = serve(Some((0, 5.0)));
        // A 5x slowdown of one of two workers must not degrade tail
        // latency by anything close to 5x (seats free up on the healthy
        // worker five times as often, so the queue drains through it), and
        // must degrade it at all, or the knob is not wired.
        // Interpolated P90, not nearest-rank P99: the nearest-rank tail
        // snaps to a single worst-case sample, while the mean this test
        // used to assert on hid genuine routing regressions.
        assert!(
            healthy.p90_latency_ms < degraded.p90_latency_ms
                && degraded.p90_latency_ms
                    < healthy.p90_latency_ms * 4.0 + 2.0 * healthy.mean_latency_ms,
            "straggler p90 {} vs healthy p90 {} (mean {})",
            degraded.p90_latency_ms,
            healthy.p90_latency_ms,
            healthy.mean_latency_ms
        );
        assert_eq!(
            serve(Some((0, 5.0))).p90_latency_ms,
            degraded.p90_latency_ms,
            "virtual latencies repeat exactly"
        );
    }

    #[test]
    fn straggler_options_are_validated() {
        let ds = DatasetConfig::games();
        for straggler in [(99, 2.0), (0, 0.5)] {
            let cfg = config(SystemKind::Bat, &ds).with_straggler(Some(straggler));
            assert!(
                matches!(
                    ServeRuntime::new(cfg, ServeOptions::default()),
                    Err(BatError::InvalidConfig(_))
                ),
                "straggler {straggler:?} must be a typed error"
            );
        }
    }

    #[test]
    fn slo_control_plane_rejects_and_conserves_under_burst() {
        use bat_sim::OverloadConfig;
        use bat_types::{Priority, SloBudget};
        let ds = DatasetConfig::games();
        // A burst far beyond two workers' capacity, every request carrying
        // a tight deadline: the controller must shed, and every submitted
        // request must still reach exactly one terminal outcome.
        let mut g = TraceGenerator::new(Workload::new(ds.clone(), 11), 12);
        g.set_slo(SloBudget::with_deadline(0.05).at_priority(Priority::Low));
        let t = g.generate(1.0, 400.0);
        let cfg = config(SystemKind::Bat, &ds).with_slo(Some(OverloadConfig));
        let stats = ServeRuntime::new(cfg, ServeOptions::default())
            .unwrap()
            .serve(&t);
        assert_eq!(stats.slo.submitted, t.len() as u64);
        assert!(
            stats.slo.conserved(),
            "conservation violated: {:?}",
            stats.slo
        );
        assert!(
            stats.slo.rejected() > 0,
            "a 400 qps burst on 2 workers must trip admission control"
        );
        assert!(stats.completed < t.len(), "shedding must actually shed");
    }

    proptest::proptest! {
        /// However a seq-ordered stream of rounds is cut into `on_rounds`
        /// calls and wherever the holds are flushed — by the rule's cap or
        /// at random — each link's frames concatenate to exactly its
        /// rounds, in `seq` order, each once.
        #[test]
        fn held_rounds_reach_each_link_once_in_seq_order(
            workers in proptest::collection::vec(0usize..4, 1..600),
            calls in proptest::collection::vec((1usize..150, proptest::bool::ANY), 1..40),
        ) {
            let rounds: Vec<RoundRecord> = workers
                .iter()
                .enumerate()
                .map(|(seq, &worker)| RoundRecord {
                    seq: seq as u64,
                    worker,
                    start: 0.0,
                    finish: 0.0,
                    service_secs: 1e-3,
                    tokens: 10,
                    requests: Vec::new(),
                })
                .collect();
            let now = Instant::now();
            let mut held = Held::new(4);
            let mut sent: Vec<Vec<u64>> = vec![Vec::new(); 4];
            let mut send = |w: usize, frame: &[DispatchMsg]| {
                assert!(!frame.is_empty(), "an empty frame to worker {w}");
                sent[w].extend(frame.iter().map(|m| m.seq));
            };
            let (mut rest, mut call) = (rounds.as_slice(), calls.iter().cycle());
            while !rest.is_empty() {
                let &(len, flush_here) = call.next().unwrap();
                let (these, later) = rest.split_at(len.min(rest.len()));
                rest = later;
                held.hold(these, now);
                if flush_here || held.is_due(now, None) {
                    held.flush(&mut send);
                    proptest::prop_assert!(held.is_empty() && !held.is_due(now, None));
                }
                let most_held = held.links.iter().map(Vec::len).max().unwrap();
                proptest::prop_assert!(most_held < MAX_COALESCED);
            }
            held.flush(&mut send);
            proptest::prop_assert!(held.is_empty());
            for (w, seqs) in sent.iter().enumerate() {
                let expected: Vec<u64> = rounds
                    .iter()
                    .filter(|r| r.worker == w)
                    .map(|r| r.seq)
                    .collect();
                proptest::prop_assert_eq!(seqs, &expected, "worker {}", w);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        /// The conservation law across random fault schedules with the SLO
        /// control plane on: `submitted == completed + shed + rejected` and
        /// `accepted == completed + shed`, no matter which workers crash
        /// when. Few cases — each spins up a real threaded runtime — but
        /// each case covers a different crash/restart interleaving.
        #[test]
        fn conservation_holds_across_random_fault_schedules(seed in 0u64..1000) {
            use bat_sim::OverloadConfig;
            use bat_types::SloBudget;
            let ds = DatasetConfig::games();
            let mut g = TraceGenerator::new(Workload::new(ds.clone(), 11), seed.wrapping_add(7));
            g.set_slo(SloBudget::with_deadline(0.2));
            let t = g.generate(2.0, 60.0);
            let schedule = bat_sim::FaultSchedule::random(seed, 2, 2.0, 1);
            let cfg = config(SystemKind::Bat, &ds)
                .with_faults(Some(schedule))
                .with_slo(Some(OverloadConfig));
            let stats = ServeRuntime::new(cfg, ServeOptions::default())
                .unwrap()
                .serve(&t);
            proptest::prop_assert_eq!(stats.slo.submitted, t.len() as u64);
            proptest::prop_assert!(stats.slo.conserved(), "not conserved: {:?}", stats.slo);
        }

        /// The extended conservation law under *membership* schedules with
        /// continuous batching on: random drain/join/crash/restart
        /// interleavings never lose or double-count a request, the
        /// migration ledger proves every move carried real work, and the
        /// whole digest still matches the simulator bit-for-bit.
        #[test]
        fn batched_conservation_holds_across_random_membership_schedules(seed in 0u64..1000) {
            use bat_sim::OverloadConfig;
            use bat_types::SloBudget;
            let ds = DatasetConfig::games();
            let mut g = TraceGenerator::new(Workload::new(ds.clone(), 11), seed.wrapping_add(7));
            g.set_slo(SloBudget::with_deadline(0.2));
            let t = g.generate(2.0, 60.0);
            let schedule = bat_sim::FaultSchedule::random_membership(seed, 2, 2.0, 1);
            let cfg = config(SystemKind::Bat, &ds)
                .with_faults(Some(schedule))
                .with_slo(Some(OverloadConfig))
                .with_batching(Some(bat_sim::BatchingConfig::default()));
            let sim_stats = ServingEngine::new(cfg.clone()).unwrap().run(&t);
            let stats = ServeRuntime::new(cfg, ServeOptions::default())
                .unwrap()
                .serve(&t);
            proptest::prop_assert_eq!(stats.slo.submitted, t.len() as u64);
            proptest::prop_assert!(stats.slo.conserved(), "not conserved: {:?}", stats.slo);
            proptest::prop_assert!(
                stats.batching.migrated_tokens >= stats.batching.migrated_requests,
                "migration must carry at least one remaining token per move"
            );
            proptest::prop_assert_eq!(stats.slo.migrated, stats.batching.migrated_requests);
            proptest::prop_assert_eq!(sim_stats.digest(), stats.digest());
        }
    }

    #[test]
    fn batched_runtime_matches_simulator_digest() {
        // The threaded runtime drives the identical nominal-time batch
        // machine, so its whole stats digest — batching ledger included —
        // must be bitwise equal to the simulator's.
        let ds = DatasetConfig {
            num_users: 300,
            ..DatasetConfig::games()
        };
        let t = trace(&ds, 2.0, 40.0);
        let cfg =
            config(SystemKind::Bat, &ds).with_batching(Some(bat_sim::BatchingConfig::default()));
        let sim_stats = ServingEngine::new(cfg.clone()).unwrap().run(&t);
        let rt_stats = ServeRuntime::new(cfg, ServeOptions::default())
            .unwrap()
            .serve(&t);
        assert_eq!(rt_stats.completed, t.len());
        assert!(rt_stats.batching.rounds > 0, "rounds must actually form");
        assert_eq!(sim_stats.batching, rt_stats.batching);
        assert_eq!(sim_stats.digest(), rt_stats.digest());
    }

    #[test]
    fn batched_runtime_conserves_under_overload_burst() {
        use bat_sim::OverloadConfig;
        use bat_types::SloBudget;
        let ds = DatasetConfig::games();
        let mut g = TraceGenerator::new(Workload::new(ds.clone(), 11), 12);
        g.set_slo(SloBudget::with_deadline(0.08));
        let t = g.generate(1.0, 400.0);
        let cfg = config(SystemKind::Bat, &ds)
            .with_slo(Some(OverloadConfig))
            .with_batching(Some(bat_sim::BatchingConfig::default()));
        let sim_stats = ServingEngine::new(cfg.clone()).unwrap().run(&t);
        let rt_stats = ServeRuntime::new(cfg, ServeOptions::default())
            .unwrap()
            .serve(&t);
        assert_eq!(rt_stats.slo.submitted, t.len() as u64);
        assert!(
            rt_stats.slo.conserved(),
            "conservation violated: {:?}",
            rt_stats.slo
        );
        assert!(
            rt_stats.slo.rejected() > 0,
            "a 400 qps burst on 2 workers must trip admission control"
        );
        assert_eq!(sim_stats.digest(), rt_stats.digest());
    }

    #[test]
    fn batched_runtime_accepts_faults_and_matches_simulator_digest() {
        // batching × faults, the combination this runtime used to refuse:
        // the machine requeues seated chunks at the nominal crash time in
        // both engines, so the whole digest — migration ledger included —
        // stays bitwise equal while this runtime kills a real worker.
        let ds = DatasetConfig {
            num_users: 300,
            ..DatasetConfig::games()
        };
        let t = trace(&ds, 3.0, 40.0);
        let schedule =
            bat_sim::FaultSchedule::single_crash(2, bat_types::WorkerId::new(1), 0.8, 1.8).unwrap();
        let cfg = config(SystemKind::Bat, &ds)
            .with_batching(Some(bat_sim::BatchingConfig::default()))
            .with_faults(Some(schedule));
        let sim_stats = ServingEngine::new(cfg.clone()).unwrap().run(&t);
        let rt_stats = ServeRuntime::new(cfg, ServeOptions::default())
            .unwrap()
            .serve(&t);
        assert!(!rt_stats.faults.is_quiet(), "the crash must be observed");
        assert_eq!(sim_stats.batching, rt_stats.batching);
        assert_eq!(sim_stats.digest(), rt_stats.digest());
    }

    #[test]
    fn batched_runtime_matches_simulator_under_drain_and_join() {
        // Elastic membership: a planned drain migrates the leaving
        // worker's remaining seats, and a later join re-plans the slot
        // back in — bit-identically in both engines.
        let ds = DatasetConfig {
            num_users: 300,
            ..DatasetConfig::games()
        };
        let t = trace(&ds, 3.0, 40.0);
        let schedule =
            bat_sim::FaultSchedule::drain_join(2, bat_types::WorkerId::new(0), 0.8, 1.8).unwrap();
        let cfg = config(SystemKind::Bat, &ds)
            .with_batching(Some(bat_sim::BatchingConfig::default()))
            .with_faults(Some(schedule));
        let sim_stats = ServingEngine::new(cfg.clone()).unwrap().run(&t);
        let rt_stats = ServeRuntime::new(cfg, ServeOptions::default())
            .unwrap()
            .serve(&t);
        assert_eq!(rt_stats.completed, t.len(), "drain/join must not drop work");
        assert_eq!(rt_stats.batching.drains, 1);
        assert_eq!(rt_stats.batching.joins, 1);
        assert_eq!(rt_stats.faults.drains, 1);
        assert_eq!(rt_stats.faults.joins, 1);
        assert_eq!(sim_stats.batching, rt_stats.batching);
        assert_eq!(sim_stats.digest(), rt_stats.digest());
    }

    #[test]
    fn faults_after_the_trace_are_delivered_without_pacing() {
        // The join at nominal 1e5 s is 100 s of wall time at the default
        // scale. Once every round has retired it has no work left to act
        // on, and the ledger applied it on nominal time, so serve returns
        // without waiting for it, with the simulator's digest.
        let ds = DatasetConfig {
            num_users: 300,
            ..DatasetConfig::games()
        };
        let t = trace(&ds, 2.0, 20.0);
        let schedule =
            bat_sim::FaultSchedule::drain_join(2, bat_types::WorkerId::new(1), 1.0, 1e5).unwrap();
        let cfg = config(SystemKind::Bat, &ds).with_faults(Some(schedule));
        let sim = ServingEngine::new(cfg.clone()).unwrap().run(&t);
        let (tx, rx) = std::sync::mpsc::channel();
        let server = thread::spawn(move || {
            let rt = ServeRuntime::new(cfg, ServeOptions::default()).unwrap();
            tx.send(rt.serve(&t)).expect("the test waits for the stats");
        });
        let served = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("serve returns before the join's wall time");
        server.join().unwrap();
        assert_eq!(served.faults.joins, 1);
        assert_eq!(served, sim);
    }

    #[test]
    fn overload_applies_backpressure_but_completes() {
        let ds = DatasetConfig::games();
        let t = trace(&ds, 1.0, 300.0);
        let rt = ServeRuntime::new(
            config(SystemKind::Bat, &ds),
            ServeOptions {
                time_scale: 1e-4,
                queue_depth: 4,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let stats = rt.serve(&t);
        assert_eq!(stats.completed, t.len(), "backpressure must not drop work");
    }
}
