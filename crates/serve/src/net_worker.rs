//! The transport-facing inference worker loop.
//!
//! One function, [`run_net_worker`], serves a worker's whole life over any
//! [`Conn`] — in-process channel, in-process socket, or a socket from a
//! child OS process. The loop speaks the bat-net vocabulary:
//!
//! 1. First frame in is a [`HelloMsg`]: worker index and the scheduler's
//!    virtual clock at send time (the worker's clock base).
//! 2. A dispatch frame carries one or more [`DispatchMsg`]s, each one round
//!    the scheduler's batch machine formed, seated and priced — batching,
//!    overhead, straggler scaling and deadline sheds all happened there.
//!    The worker "executes" the frame's rounds in order by booking each
//!    one's priced duration on a [`Pacer`]: the round finishes at
//!    `max(previous finish, now) + priced`, and the worker blocks only when
//!    that runs more than a sleep granule ahead of the wall clock. Each
//!    round gets its own [`CompletionMsg`], carrying the latency at the
//!    *paced* finish instant, so a round's latency is never below its priced
//!    service, and priced time adds up exactly over a busy period instead of
//!    gaining one timer floor per round.
//! 3. Replies are coalesced: after each blocking receive the worker keeps
//!    serving the frames [`Conn::try_recv`] still finds whole in the read
//!    buffer (on a socket, whatever that receive's one read brought in)
//!    and writes its queued completions as one frame — when the buffer
//!    runs dry, before it blocks on the pacer (nothing finished waits out
//!    a sleep), or once 64 are queued (`MAX_COALESCED`, the count at which
//!    the scheduler also writes the rounds it holds for a link).
//! 4. A worker fails one way, thread or child process: the parent severs
//!    its conn (killing the process first, if there is one). The severed
//!    worker's next receive or send finds the conn dead and ends the loop
//!    with `Ok(())`; whatever it never acknowledged, the parent retires when
//!    its reader sees the conn go down. A restart or a join is a fresh
//!    worker on a fresh conn.
//! 5. A [`ShutdownMsg`](bat_net::ShutdownMsg) — or the peer disconnecting — ends the loop.
//!
//! [`maybe_child_worker`] is the child-process entry point: binaries (and
//! the integration test) call it first thing in `main`; when the
//! `BAT_NET_WORKER_SOCKET` environment variable is set the process
//! connects back to the parent, serves until shutdown, and exits without
//! ever returning to the caller.

use crate::pacer::Pacer;
use crate::MAX_COALESCED;
use bat_net::{
    CompletionMsg, Conn, DispatchMsg, HelloMsg, NetError, WireCodec, WireOutcome, MSG_DISPATCH,
    MSG_HELLO, MSG_SHUTDOWN,
};
use std::time::{Duration, Instant};

/// Environment variable carrying the parent's Unix-socket path; its
/// presence turns the process into a worker (see [`maybe_child_worker`]).
pub const CHILD_SOCKET_ENV: &str = "BAT_NET_WORKER_SOCKET";

/// Environment variable carrying the worker index, for diagnostics.
pub const CHILD_INDEX_ENV: &str = "BAT_NET_WORKER_INDEX";

/// Serves one worker's lifetime over `conn`.
///
/// Returns `Ok(())` on orderly shutdown *or* when the conn dies under the
/// worker, at a receive or at a send: at the end of a run the scheduler
/// may simply drop its end, and a crash is the scheduler closing it.
///
/// # Errors
///
/// Propagates protocol violations — a non-hello first frame, undecodable
/// payloads, unexpected frame types — as typed [`NetError`]s.
pub fn run_net_worker(conn: &dyn Conn) -> Result<(), NetError> {
    match serve(conn) {
        Err(NetError::Disconnected) => Ok(()),
        served => served,
    }
}

/// [`run_net_worker`]'s loop, which ends on a dead conn with
/// [`NetError::Disconnected`].
fn serve(conn: &dyn Conn) -> Result<(), NetError> {
    let first = conn.recv()?;
    if first.msg_type != MSG_HELLO {
        return Err(NetError::UnknownMsgType(first.msg_type));
    }
    let hello = HelloMsg::from_frame(&first)?;
    let base = Instant::now();
    // The worker's virtual clock: the scheduler's clock at hello time plus
    // locally elapsed scaled time. Skew is one frame's delivery latency.
    let virtual_at = move |t: Instant| {
        hello.virtual_now + t.saturating_duration_since(base).as_secs_f64() / hello.scale
    };
    let mut pacer = Pacer::new();
    // A frame's rounds, and the replies not yet written; reused.
    let (mut jobs, mut replies) = (Vec::new(), Vec::new());

    loop {
        // Idle: block for a frame, then serve for as long as more are
        // found queued behind it.
        let mut next = Some(conn.recv()?);
        let mut backlogged = false;
        while let Some(frame) = next.take() {
            match frame.msg_type {
                MSG_SHUTDOWN => return reply(conn, &mut replies),
                MSG_DISPATCH => DispatchMsg::batch_from_frame(&frame, &mut jobs)?,
                other => return Err(NetError::UnknownMsgType(other)),
            }
            for job in jobs.drain(..) {
                let service = job.service_virtual;
                let priced = Duration::from_secs_f64(service * hello.scale);
                let finish = pacer.charge(priced, backlogged);
                if pacer.is_ahead() {
                    // Nothing that already finished waits out a sleep.
                    reply(conn, &mut replies)?;
                    pacer.catch_up();
                }
                // Stamped at the paced finish, which a worker that did not
                // block has yet to reach: never below the priced service.
                let latency = (virtual_at(finish) - job.arrival_virtual).max(service);
                replies.push(CompletionMsg {
                    worker: hello.worker,
                    seq: job.seq,
                    suffix_tokens: job.suffix_tokens,
                    outcome: WireOutcome::Completed {
                        latency_virtual: latency,
                        missed: job.deadline_rel.is_some_and(|d| latency > d),
                    },
                });
                if replies.len() >= MAX_COALESCED {
                    reply(conn, &mut replies)?;
                }
                backlogged = true;
            }
            next = conn.try_recv()?;
        }
        reply(conn, &mut replies)?;
    }
}

/// Writes the queued `replies`, if any, as one frame.
fn reply(conn: &dyn Conn, replies: &mut Vec<CompletionMsg>) -> Result<(), NetError> {
    if replies.is_empty() {
        return Ok(());
    }
    let frame = CompletionMsg::batch_to_frame(replies);
    replies.clear();
    conn.send(frame)
}

/// Child-process entry point. Call this first thing in `main` (and in the
/// integration test function re-entered by a spawned test binary): when
/// [`CHILD_SOCKET_ENV`] is set, the process connects back to the parent
/// over that Unix socket, serves as a worker, and **exits** — it never
/// returns to the caller. When the variable is absent this is a no-op.
pub fn maybe_child_worker() {
    let Ok(path) = std::env::var(CHILD_SOCKET_ENV) else {
        return;
    };
    #[cfg(unix)]
    {
        use bat_net::{Transport, UdsTransport};
        let code = match UdsTransport::new().connect(&path) {
            Ok(conn) => match run_net_worker(conn.as_ref()) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("bat-net child worker: {e}");
                    1
                }
            },
            Err(e) => {
                eprintln!("bat-net child worker: connect {path}: {e}");
                1
            }
        };
        std::process::exit(code);
    }
    #[cfg(not(unix))]
    {
        eprintln!("bat-net child worker requested on a non-unix platform ({path})");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_net::{ChannelConn, ShutdownMsg};
    use std::thread;

    fn hello(scale: f64) -> HelloMsg {
        HelloMsg {
            worker: 0,
            scale,
            virtual_now: 0.0,
        }
    }

    /// Receives completion frames until `n` completions have arrived,
    /// decoding every message of each frame.
    fn completions(parent: &dyn Conn, n: usize) -> Vec<CompletionMsg> {
        let mut seen = Vec::new();
        while seen.len() < n {
            let before = seen.len();
            CompletionMsg::batch_from_frame(&parent.recv().unwrap(), &mut seen).unwrap();
            assert!(seen.len() - before <= MAX_COALESCED);
        }
        assert_eq!(seen.len(), n, "a completion beyond the rounds sent");
        seen
    }

    #[test]
    fn serves_dispatches_until_shutdown() {
        let (parent, worker) = ChannelConn::pair();
        let handle = thread::spawn(move || run_net_worker(worker.as_ref()));
        parent.send(hello(1e-4).to_frame()).unwrap();
        let rounds: Vec<DispatchMsg> = (0..3u64)
            .map(|seq| DispatchMsg {
                seq,
                arrival_virtual: 0.0,
                suffix_tokens: 10,
                service_virtual: 0.001,
                deadline_rel: None,
            })
            .collect();
        parent.send(DispatchMsg::batch_to_frame(&rounds)).unwrap();
        let mut seen = Vec::new();
        for c in completions(parent.as_ref(), 3) {
            assert!(matches!(c.outcome, WireOutcome::Completed { .. }));
            seen.push(c.seq);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
        parent.send(ShutdownMsg.to_frame()).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn backlog_is_paced_in_aggregate_and_stamped_at_the_paced_finish() {
        // 200 rounds queued in frames of 30 before the worker starts, each
        // priced at 1 virtual second = 1 µs of wall time: far below the
        // sleep granule, so the worker mostly does not block — and still
        // every latency is at least its priced service, latencies grow by a
        // full service per round (one busy period), and the replies keep
        // round order.
        let (parent, worker) = ChannelConn::pair();
        parent.send(hello(1e-6).to_frame()).unwrap();
        let service = 1.0;
        let rounds: Vec<DispatchMsg> = (0..200u64)
            .map(|seq| DispatchMsg {
                seq,
                arrival_virtual: 0.0,
                suffix_tokens: 10,
                service_virtual: service,
                deadline_rel: None,
            })
            .collect();
        for frame in rounds.chunks(30) {
            parent.send(DispatchMsg::batch_to_frame(frame)).unwrap();
        }
        parent.send(ShutdownMsg.to_frame()).unwrap();
        let handle = thread::spawn(move || run_net_worker(worker.as_ref()));
        let mut last = 0.0;
        for (seq, c) in (0..200u64).zip(completions(parent.as_ref(), 200)) {
            assert_eq!(c.seq, seq);
            let WireOutcome::Completed {
                latency_virtual, ..
            } = c.outcome
            else {
                panic!("round {seq} was not served: {:?}", c.outcome);
            };
            assert!(
                latency_virtual >= last + service * (1.0 - 1e-9),
                "round {seq}: latency {latency_virtual} after {last}"
            );
            last = latency_virtual;
        }
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn a_worker_severed_with_frames_queued_exits_cleanly() {
        // The parent closes its end with more frames queued than the
        // worker answers in one write: the worker serves what it finds,
        // its write into the dead conn fails, and that is an orderly end.
        let (parent, worker) = ChannelConn::pair();
        parent.send(hello(1e-6).to_frame()).unwrap();
        for seq in 0..=MAX_COALESCED as u64 {
            let dispatch = DispatchMsg {
                seq,
                arrival_virtual: 0.0,
                suffix_tokens: 10,
                service_virtual: 1e-3,
                deadline_rel: None,
            };
            parent.send(dispatch.to_frame()).unwrap();
        }
        parent.close();
        let handle = thread::spawn(move || run_net_worker(worker.as_ref()));
        assert_eq!(handle.join().unwrap(), Ok(()));
    }

    #[test]
    fn non_hello_first_frame_is_a_typed_error() {
        let (parent, worker) = ChannelConn::pair();
        let handle = thread::spawn(move || run_net_worker(worker.as_ref()));
        parent
            .send(
                DispatchMsg {
                    seq: 0,
                    arrival_virtual: 0.0,
                    suffix_tokens: 1,
                    service_virtual: 0.0,
                    deadline_rel: None,
                }
                .to_frame(),
            )
            .unwrap();
        assert!(matches!(
            handle.join().unwrap(),
            Err(NetError::UnknownMsgType(bat_net::MSG_DISPATCH))
        ));
    }
}
