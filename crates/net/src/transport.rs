//! The pluggable [`Transport`] abstraction and its deterministic oracle,
//! [`ChannelTransport`].
//!
//! A transport gives the runtime three things: `listen` (bind a named
//! endpoint), `accept` (wait for a peer), and `connect` (dial one). Both
//! sides then hold a [`Conn`] — a bidirectional, frame-oriented pipe with
//! single and batched sends and blocking and non-blocking receives (a
//! blocking receive waits on a condvar or in a read; none polls). The
//! serving runtime is written against these traits only; whether frames
//! cross an in-process pipe, a Unix socket, or a TCP loopback is a
//! construction-time choice.
//!
//! `ChannelTransport` is the reference backend: frames move through
//! in-process queues — one `Mutex` over both directions, a `Condvar` each
//! way — with no byte serialization, so it is immune to socket-layer bugs
//! by construction. The socket backends must reproduce its observable
//! behavior bit for bit — that contract is pinned by the
//! `integration_transport` determinism test.

use crate::error::NetError;
use crate::frame::Frame;
use crate::wire::WireCodec;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// One bidirectional frame pipe between two peers.
///
/// All methods take `&self`: connections are shared across threads (a
/// dispatcher sending while a reader blocks in `recv`), so implementations
/// synchronize internally.
pub trait Conn: Send + Sync {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] when the peer is gone; socket backends
    /// may surface other typed I/O failures.
    fn send(&self, frame: Frame) -> Result<(), NetError>;

    /// Sends every frame of `frames` in order, as one write where the
    /// backend can, and leaves `frames` empty (its capacity is the
    /// caller's to reuse). An empty batch touches nothing.
    ///
    /// # Errors
    ///
    /// As [`Conn::send`]. A failed batch counts as unsent as a whole: the
    /// connection is dead, and the peer may have seen any prefix of it.
    fn send_batch(&self, frames: &mut Vec<Frame>) -> Result<(), NetError>;

    /// Blocks until a frame arrives.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] when the peer closed cleanly, or the
    /// typed decode/I/O error that killed the stream.
    fn recv(&self) -> Result<Frame, NetError>;

    /// Returns a frame if one is already buffered, `Ok(None)` otherwise.
    /// Never blocks, and never waits for the rest of a frame.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] (or the stream's fatal error) once the
    /// buffer is drained and the end of the stream has been seen — a socket
    /// sees it only in a [`Conn::recv`].
    fn try_recv(&self) -> Result<Option<Frame>, NetError>;

    /// Tears the connection down; pending and future operations on either
    /// side fail with [`NetError::Disconnected`]. Idempotent.
    fn close(&self);
}

/// Encodes and sends a typed message over any connection.
///
/// # Errors
///
/// As [`Conn::send`].
pub fn send_msg<M: WireCodec>(conn: &dyn Conn, msg: &M) -> Result<(), NetError> {
    conn.send(msg.to_frame())
}

/// Receives and decodes a typed message, rejecting other frame types.
///
/// # Errors
///
/// As [`Conn::recv`], plus [`NetError::UnknownMsgType`] when the next
/// frame is not an `M`.
pub fn recv_msg<M: WireCodec>(conn: &dyn Conn) -> Result<M, NetError> {
    M::from_frame(&conn.recv()?)
}

/// A bound endpoint waiting for peers.
pub trait Listener: Send + Sync {
    /// Blocks until a peer connects.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] when the listener is closed, or a typed
    /// I/O failure.
    fn accept(&self) -> Result<Arc<dyn Conn>, NetError>;

    /// Waits up to `timeout` for a peer.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when the deadline passes, otherwise as
    /// [`Listener::accept`].
    fn accept_timeout(&self, timeout: Duration) -> Result<Arc<dyn Conn>, NetError>;

    /// The address peers should dial — for socket listeners bound to an
    /// ephemeral port this differs from the requested address.
    fn local_addr(&self) -> String;
}

/// A way of producing connections: the runtime's seam between "what is
/// sent" and "how it travels".
pub trait Transport: Send + Sync {
    /// Binds a named endpoint.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidAddress`] on a malformed or already-bound
    /// address, or a typed I/O failure.
    fn listen(&self, addr: &str) -> Result<Box<dyn Listener>, NetError>;

    /// Dials a bound endpoint.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidAddress`] when nothing is bound there, or a
    /// typed I/O failure.
    fn connect(&self, addr: &str) -> Result<Arc<dyn Conn>, NetError>;
}

// ---------------------------------------------------------------------------
// Channel backend: the deterministic in-process oracle.
// ---------------------------------------------------------------------------

/// Both directions of an in-process duplex and whether it is open, under
/// one lock: a blocked `recv` waits on its end's condvar and is woken by a
/// send to it *or* by either end's close, and the close is one flag, so an
/// end that has seen it — in a `recv` or a `send` — sees it everywhere.
struct Duplex {
    state: Mutex<DuplexState>,
    /// One condvar per end, each waited on by that end's `recv`.
    cond: [Condvar; 2],
}

struct DuplexState {
    /// The frames each end has yet to receive, by end.
    queues: [VecDeque<Frame>; 2],
    /// False once either end closed (or dropped): every send fails, and
    /// each end drains what it has buffered, then observes the disconnect.
    open: bool,
}

/// In-process [`Conn`]: one end of a condvar-backed duplex. `recv` blocks
/// natively (no polling), which keeps the channel oracle's delivery
/// latency at thread-wakeup cost — the bar the socket backends are
/// measured against.
pub struct ChannelConn {
    duplex: Arc<Duplex>,
    /// This end's index: it receives from `queues[end]` and sends to the
    /// other end's queue.
    end: usize,
}

impl ChannelConn {
    /// Builds both ends of a duplex in-process connection.
    pub fn pair() -> (Arc<ChannelConn>, Arc<ChannelConn>) {
        let duplex = Arc::new(Duplex {
            state: Mutex::new(DuplexState {
                queues: [VecDeque::new(), VecDeque::new()],
                open: true,
            }),
            cond: [Condvar::new(), Condvar::new()],
        });
        let a = Arc::new(ChannelConn {
            duplex: Arc::clone(&duplex),
            end: 0,
        });
        (a, Arc::new(ChannelConn { duplex, end: 1 }))
    }

    /// Queues `frames` on the peer under one lock and wakes it once.
    fn push(&self, frames: impl IntoIterator<Item = Frame>) -> Result<(), NetError> {
        let peer = 1 - self.end;
        let mut state = lock(&self.duplex.state);
        if !state.open {
            return Err(NetError::Disconnected);
        }
        state.queues[peer].extend(frames);
        drop(state);
        self.duplex.cond[peer].notify_all();
        Ok(())
    }
}

impl Conn for ChannelConn {
    fn send(&self, frame: Frame) -> Result<(), NetError> {
        self.push([frame])
    }

    fn send_batch(&self, frames: &mut Vec<Frame>) -> Result<(), NetError> {
        if frames.is_empty() {
            return Ok(());
        }
        self.push(frames.drain(..))
    }

    /// Blocks on this end's condvar until a frame or a disconnect.
    fn recv(&self) -> Result<Frame, NetError> {
        let mut state = lock(&self.duplex.state);
        loop {
            if let Some(frame) = state.queues[self.end].pop_front() {
                return Ok(frame);
            }
            if !state.open {
                return Err(NetError::Disconnected);
            }
            state = self.duplex.cond[self.end]
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn try_recv(&self) -> Result<Option<Frame>, NetError> {
        let mut state = lock(&self.duplex.state);
        if let Some(frame) = state.queues[self.end].pop_front() {
            return Ok(Some(frame));
        }
        if !state.open {
            return Err(NetError::Disconnected);
        }
        Ok(None)
    }

    fn close(&self) {
        lock(&self.duplex.state).open = false;
        for cond in &self.duplex.cond {
            cond.notify_all();
        }
    }
}

impl Drop for ChannelConn {
    /// Dropping an end behaves like closing it, so a peer blocked in
    /// `recv` never hangs on a connection nobody holds anymore.
    fn drop(&mut self) {
        self.close();
    }
}

/// Locks `m`, recovering from poisoning: every state behind these locks is
/// a queue or a flag that a panicking holder cannot leave half-updated.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Listener side of a channel endpoint: a queue of freshly paired conns.
/// The receiver sits behind a lock because a [`Listener`] is shared.
struct ChannelListener {
    addr: String,
    incoming: Mutex<Receiver<Arc<ChannelConn>>>,
}

impl Listener for ChannelListener {
    fn accept(&self) -> Result<Arc<dyn Conn>, NetError> {
        let conn = lock(&self.incoming).recv();
        Ok(conn.map_err(|_| NetError::Disconnected)? as Arc<dyn Conn>)
    }

    fn accept_timeout(&self, timeout: Duration) -> Result<Arc<dyn Conn>, NetError> {
        let conn = lock(&self.incoming).recv_timeout(timeout)?;
        Ok(conn as Arc<dyn Conn>)
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }
}

/// The in-process channel backend. Each instance owns a private address
/// namespace — two `ChannelTransport`s cannot see each other's listeners,
/// which keeps tests hermetic.
#[derive(Default)]
pub struct ChannelTransport {
    registry: Mutex<HashMap<String, SyncSender<Arc<ChannelConn>>>>,
}

impl ChannelTransport {
    /// Creates an empty transport (no bound endpoints).
    pub fn new() -> Self {
        Self::default()
    }
}

impl Transport for ChannelTransport {
    fn listen(&self, addr: &str) -> Result<Box<dyn Listener>, NetError> {
        if addr.is_empty() {
            return Err(NetError::InvalidAddress("empty address".into()));
        }
        let mut reg = lock(&self.registry);
        if reg.contains_key(addr) {
            return Err(NetError::InvalidAddress(format!(
                "address already bound: {addr}"
            )));
        }
        let (tx, rx) = sync_channel(64);
        reg.insert(addr.to_string(), tx);
        Ok(Box::new(ChannelListener {
            addr: addr.to_string(),
            incoming: Mutex::new(rx),
        }))
    }

    fn connect(&self, addr: &str) -> Result<Arc<dyn Conn>, NetError> {
        let accept_tx = lock(&self.registry)
            .get(addr)
            .cloned()
            .ok_or_else(|| NetError::InvalidAddress(format!("nothing bound at {addr}")))?;
        let (client, server) = ChannelConn::pair();
        accept_tx.send(server).map_err(|_| NetError::Disconnected)?;
        Ok(client as Arc<dyn Conn>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{DispatchMsg, ShutdownMsg};

    #[test]
    fn pair_carries_frames_both_ways() {
        let (a, b) = ChannelConn::pair();
        a.send(Frame::new(1, vec![1])).unwrap();
        b.send(Frame::new(2, vec![2])).unwrap();
        assert_eq!(b.recv().unwrap().payload, vec![1]);
        assert_eq!(a.recv().unwrap().payload, vec![2]);
        assert_eq!(a.try_recv().unwrap(), None);
    }

    #[test]
    fn listen_connect_accept_roundtrip() {
        let t = ChannelTransport::new();
        let listener = t.listen("worker-0").unwrap();
        let client = t.connect("worker-0").unwrap();
        let server = listener.accept_timeout(Duration::from_secs(1)).unwrap();
        send_msg(
            client.as_ref(),
            &DispatchMsg {
                seq: 1,
                arrival_virtual: 0.5,
                suffix_tokens: 10,
                service_virtual: 0.01,
                deadline_rel: None,
            },
        )
        .unwrap();
        let msg: DispatchMsg = recv_msg(server.as_ref()).unwrap();
        assert_eq!(msg.seq, 1);
    }

    #[test]
    fn double_bind_and_unknown_addr_are_invalid_address() {
        let t = ChannelTransport::new();
        let _l = t.listen("x").unwrap();
        assert!(matches!(t.listen("x"), Err(NetError::InvalidAddress(_))));
        assert!(matches!(t.connect("y"), Err(NetError::InvalidAddress(_))));
        assert!(matches!(t.listen(""), Err(NetError::InvalidAddress(_))));
    }

    #[test]
    fn transports_are_hermetic_namespaces() {
        let t1 = ChannelTransport::new();
        let t2 = ChannelTransport::new();
        let _l = t1.listen("shared").unwrap();
        assert!(t2.connect("shared").is_err());
        let _l2 = t2.listen("shared").unwrap();
    }

    #[test]
    fn close_disconnects_both_sides() {
        let (a, b) = ChannelConn::pair();
        a.send(Frame::new(1, vec![7])).unwrap();
        a.close();
        // Frames sent before the close still drain on the peer, then the
        // peer — even one blocked in `recv` — observes the disconnect.
        assert_eq!(b.recv().unwrap().payload, vec![7]);
        assert_eq!(b.recv().unwrap_err(), NetError::Disconnected);
        assert_eq!(a.send(Frame::new(1, vec![])), Err(NetError::Disconnected));
        assert_eq!(a.recv().unwrap_err(), NetError::Disconnected);
    }

    #[test]
    fn an_end_that_saw_its_close_can_no_longer_send() {
        // A receive that reports the disconnect comes after the close in
        // full: the same end's next send must already fail.
        for round in 0..2_000 {
            let (a, _b) = ChannelConn::pair();
            let reader = Arc::clone(&a);
            let reader = std::thread::spawn(move || {
                let seen = reader.recv();
                (seen, reader.send(Frame::new(1, vec![])))
            });
            a.close();
            let (seen, sent) = reader.join().unwrap();
            assert_eq!(seen, Err(NetError::Disconnected), "round {round}");
            assert_eq!(sent, Err(NetError::Disconnected), "round {round}");
        }
    }

    #[test]
    fn dropped_peer_surfaces_disconnect() {
        let (a, b) = ChannelConn::pair();
        drop(b);
        assert_eq!(a.recv().unwrap_err(), NetError::Disconnected);
        assert_eq!(a.send(Frame::new(1, vec![])), Err(NetError::Disconnected));
    }

    #[test]
    fn batch_arrives_in_order_and_a_closed_peer_fails_it_whole() {
        let (a, b) = ChannelConn::pair();
        let mut frames: Vec<Frame> = (0..5u8).map(|i| Frame::new(i, vec![i])).collect();
        let capacity = frames.capacity();
        a.send_batch(&mut frames).unwrap();
        assert!(frames.is_empty() && frames.capacity() == capacity);
        for i in 0..5u8 {
            assert_eq!(b.recv().unwrap(), Frame::new(i, vec![i]));
        }
        assert_eq!(b.try_recv().unwrap(), None);
        b.close();
        frames.extend((0..3u8).map(|i| Frame::new(i, vec![])));
        assert_eq!(a.send_batch(&mut frames), Err(NetError::Disconnected));
        assert!(frames.is_empty());
    }

    #[test]
    fn recv_wakes_on_a_send_from_another_thread() {
        let (a, b) = ChannelConn::pair();
        let sender = std::thread::spawn(move || send_msg(b.as_ref(), &ShutdownMsg));
        // Blocks on the pipe's condvar until the send wakes it; the peer's
        // drop afterwards reads as a disconnect.
        let frame = a.recv().unwrap();
        ShutdownMsg::from_frame(&frame).unwrap();
        sender.join().unwrap().unwrap();
        assert_eq!(a.recv().unwrap_err(), NetError::Disconnected);
    }

    #[test]
    fn try_recv_is_none_then_recv_delivers() {
        let (a, b) = ChannelConn::pair();
        assert_eq!(a.try_recv().unwrap(), None);
        send_msg(b.as_ref(), &ShutdownMsg).unwrap();
        let frame = a.recv().unwrap();
        ShutdownMsg::from_frame(&frame).unwrap();
    }

    #[test]
    fn listener_accept_timeout_expires() {
        let t = ChannelTransport::new();
        let l = t.listen("quiet").unwrap();
        assert!(matches!(
            l.accept_timeout(Duration::from_millis(5)),
            Err(NetError::Timeout)
        ));
    }
}
