//! Real socket backends: Unix domain sockets and loopback TCP.
//!
//! Both speak the versioned length-prefixed frame protocol from
//! [`crate::frame`]. A [`SocketConn`] owns a detached *pump* thread that
//! blocks in `read_frame` and feeds decoded frames into an internal
//! crossbeam channel; `recv`/`try_recv`/`recv_timeout` then drain that
//! channel. This keeps the receive API uniform with the channel backend
//! and — more importantly — makes `try_recv` safe: a non-blocking read
//! directly off a socket could return mid-frame and desynchronize the
//! stream, but the pump always consumes whole frames.
//!
//! When the pump hits an error it parks the typed [`NetError`] and drops
//! its sender; receivers drain any buffered frames first, then surface
//! that error — so a peer that sends five frames and crashes still
//! delivers all five.
//!
//! The send side buffers: [`Conn::send_batch`] encodes every frame of a
//! batch into the connection's `BufWriter` under one writer lock and
//! flushes once, so a batch that fits the buffer costs one `write` call.
//!
//! A [`SocketListener`] accepts the same way a conn receives: a pump thread
//! blocks in `accept` and queues wrapped connections, so a bounded-wait
//! accept is a timed channel receive, not a non-blocking poll.

use crate::error::NetError;
use crate::frame::{read_frame, write_frame, Frame};
use crate::transport::{Conn, Listener, Transport};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, TryRecvError};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The stream kinds a [`SocketConn`] can wrap.
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    fn shutdown(&self) {
        // Best-effort: unblocks the pump thread's read; an already-dead
        // socket is fine.
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A [`Conn`] over a real OS socket with a pump-thread receive path.
pub struct SocketConn {
    writer: Mutex<BufWriter<Stream>>,
    /// A second handle to the same socket, kept for `close` to shut the
    /// stream down and unblock the pump.
    raw: Stream,
    incoming: Receiver<Frame>,
    /// The typed error that ended the pump, once it has.
    fate: Arc<Mutex<Option<NetError>>>,
}

impl SocketConn {
    fn spawn(stream: Stream) -> Result<Arc<SocketConn>, NetError> {
        if let Stream::Tcp(tcp) = &stream {
            tcp.set_nodelay(true).ok();
        }
        let reader_stream = stream.try_clone()?;
        let writer_stream = stream.try_clone()?;
        let (tx, rx) = unbounded();
        let fate = Arc::new(Mutex::new(None));
        let pump_fate = Arc::clone(&fate);
        // Detached on purpose: the pump exits when the socket dies or is
        // shut down by `close`, and holds no resources beyond the fd clone.
        std::thread::spawn(move || {
            let mut reader = BufReader::new(reader_stream);
            loop {
                match read_frame(&mut reader) {
                    Ok(frame) => {
                        if tx.send(frame).is_err() {
                            break; // conn dropped; nobody is listening
                        }
                    }
                    Err(e) => {
                        *lock(&pump_fate) = Some(e);
                        break; // tx drops here; receivers see the fate
                    }
                }
            }
        });
        Ok(Arc::new(SocketConn {
            writer: Mutex::new(BufWriter::new(writer_stream)),
            raw: stream,
            incoming: rx,
            fate,
        }))
    }

    /// Wraps an accepted or dialed TCP stream.
    pub fn from_tcp(stream: TcpStream) -> Result<Arc<SocketConn>, NetError> {
        Self::spawn(Stream::Tcp(stream))
    }

    /// Wraps an accepted or dialed Unix-domain stream.
    #[cfg(unix)]
    pub fn from_unix(stream: UnixStream) -> Result<Arc<SocketConn>, NetError> {
        Self::spawn(Stream::Unix(stream))
    }

    fn fate(&self) -> NetError {
        lock(&self.fate).clone().unwrap_or(NetError::Disconnected)
    }

    /// Writes `frames` under one writer lock and flushes once.
    fn write_all(&self, frames: &[Frame]) -> Result<(), NetError> {
        if frames.is_empty() {
            return Ok(());
        }
        let mut w = lock(&self.writer);
        for frame in frames {
            write_frame(&mut *w, frame)?;
        }
        w.flush()?;
        Ok(())
    }
}

impl Conn for SocketConn {
    fn send(&self, frame: Frame) -> Result<(), NetError> {
        self.write_all(&[frame])
    }

    fn send_batch(&self, frames: &mut Vec<Frame>) -> Result<(), NetError> {
        let sent = self.write_all(frames);
        frames.clear();
        sent
    }

    fn recv(&self) -> Result<Frame, NetError> {
        self.incoming.recv().map_err(|_| self.fate())
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Frame, NetError> {
        self.incoming.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => self.fate(),
        })
    }

    fn try_recv(&self) -> Result<Option<Frame>, NetError> {
        match self.incoming.try_recv() {
            Ok(frame) => Ok(Some(frame)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(self.fate()),
        }
    }

    fn close(&self) {
        self.raw.shutdown();
    }
}

impl Drop for SocketConn {
    fn drop(&mut self) {
        self.raw.shutdown();
    }
}

/// Listener over a bound TCP or Unix-domain socket. A Unix listener
/// unlinks its path on drop.
pub struct SocketListener {
    incoming: Receiver<Result<Arc<SocketConn>, NetError>>,
    /// Raised by drop; the pump checks it after every `accept`.
    closed: Arc<AtomicBool>,
    addr: String,
    unix: bool,
}

impl SocketListener {
    /// Starts the accept pump over `accept`, which blocks for the next peer.
    fn spawn(
        addr: String,
        unix: bool,
        mut accept: impl FnMut() -> std::io::Result<Stream> + Send + 'static,
    ) -> Box<dyn Listener> {
        let (tx, rx) = unbounded();
        let closed = Arc::new(AtomicBool::new(false));
        let pump_closed = Arc::clone(&closed);
        // Detached on purpose: drop raises `closed` and dials the endpoint
        // once, which wakes the pump out of `accept`; it then exits and
        // releases the socket. An accept error ends the pump too, after
        // the typed error has been queued for the next caller.
        std::thread::spawn(move || loop {
            let stream = accept();
            if pump_closed.load(Ordering::Acquire) {
                break;
            }
            let conn = stream.map_err(NetError::from).and_then(SocketConn::spawn);
            let last = conn.is_err();
            if tx.send(conn).is_err() || last {
                break;
            }
        });
        Box::new(SocketListener {
            incoming: rx,
            closed,
            addr,
            unix,
        })
    }
}

impl Listener for SocketListener {
    fn accept(&self) -> Result<Arc<dyn Conn>, NetError> {
        let conn = self.incoming.recv().map_err(|_| NetError::Disconnected)?;
        Ok(conn? as Arc<dyn Conn>)
    }

    fn accept_timeout(&self, timeout: Duration) -> Result<Arc<dyn Conn>, NetError> {
        Ok(self.incoming.recv_timeout(timeout)?? as Arc<dyn Conn>)
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }
}

impl Drop for SocketListener {
    fn drop(&mut self) {
        self.closed.store(true, Ordering::Release);
        // Best-effort wake-up of the pump; if the dial fails the pump (and
        // the bound socket) lives until the process exits.
        if self.unix {
            #[cfg(unix)]
            let _ = UnixStream::connect(&self.addr);
            let _ = std::fs::remove_file(&self.addr);
        } else {
            let _ = TcpStream::connect(&self.addr);
        }
    }
}

/// Loopback TCP backend. Addresses are `host:port` strings; listening on
/// port 0 binds an ephemeral port, reported by [`Listener::local_addr`].
#[derive(Default)]
pub struct TcpTransport;

impl TcpTransport {
    /// Creates the TCP backend (stateless).
    pub fn new() -> Self {
        TcpTransport
    }
}

impl Transport for TcpTransport {
    fn listen(&self, addr: &str) -> Result<Box<dyn Listener>, NetError> {
        let inner = TcpListener::bind(addr)
            .map_err(|e| NetError::InvalidAddress(format!("bind {addr}: {e}")))?;
        let addr = inner
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.to_string());
        Ok(SocketListener::spawn(addr, false, move || {
            inner.accept().map(|(stream, _)| Stream::Tcp(stream))
        }))
    }

    fn connect(&self, addr: &str) -> Result<Arc<dyn Conn>, NetError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| NetError::InvalidAddress(format!("connect {addr}: {e}")))?;
        Ok(SocketConn::from_tcp(stream)? as Arc<dyn Conn>)
    }
}

/// Unix-domain-socket backend. Addresses are filesystem paths; a stale
/// socket file from a crashed previous run is unlinked before binding.
#[cfg(unix)]
#[derive(Default)]
pub struct UdsTransport;

#[cfg(unix)]
impl UdsTransport {
    /// Creates the UDS backend (stateless).
    pub fn new() -> Self {
        UdsTransport
    }
}

#[cfg(unix)]
impl Transport for UdsTransport {
    fn listen(&self, addr: &str) -> Result<Box<dyn Listener>, NetError> {
        if addr.is_empty() {
            return Err(NetError::InvalidAddress("empty socket path".into()));
        }
        if std::path::Path::new(addr).exists() {
            std::fs::remove_file(addr)
                .map_err(|e| NetError::InvalidAddress(format!("unlink stale {addr}: {e}")))?;
        }
        let inner = UnixListener::bind(addr)
            .map_err(|e| NetError::InvalidAddress(format!("bind {addr}: {e}")))?;
        Ok(SocketListener::spawn(addr.to_string(), true, move || {
            inner.accept().map(|(stream, _)| Stream::Unix(stream))
        }))
    }

    fn connect(&self, addr: &str) -> Result<Arc<dyn Conn>, NetError> {
        let stream = UnixStream::connect(addr)
            .map_err(|e| NetError::InvalidAddress(format!("connect {addr}: {e}")))?;
        Ok(SocketConn::from_unix(stream)? as Arc<dyn Conn>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{CompletionMsg, DispatchMsg, WireOutcome};
    use crate::wire::WireCodec;

    fn exercise(transport: &dyn Transport, addr: &str) {
        let listener = transport.listen(addr).unwrap();
        let dial = listener.local_addr();
        let client = transport.connect(&dial).unwrap();
        let server = listener.accept_timeout(Duration::from_secs(5)).unwrap();

        let d = DispatchMsg {
            seq: 77,
            arrival_virtual: 1.25,
            suffix_tokens: 640,
            service_virtual: 0.03,
            deadline_rel: Some(0.25),
        };
        client.send(d.to_frame()).unwrap();
        let got =
            DispatchMsg::from_frame(&server.recv_timeout(Duration::from_secs(5)).unwrap()).unwrap();
        assert_eq!(got, d);

        let c = CompletionMsg {
            worker: 0,
            seq: 77,
            suffix_tokens: 640,
            outcome: WireOutcome::Completed {
                latency_virtual: 0.04,
                missed: false,
            },
        };
        server.send(c.to_frame()).unwrap();
        let got = CompletionMsg::from_frame(&client.recv_timeout(Duration::from_secs(5)).unwrap())
            .unwrap();
        assert_eq!(got, c);

        // A batch is one flush; its frames arrive whole and in order.
        let mut batch: Vec<Frame> = (0..40u8)
            .map(|i| Frame::new(9, vec![i; i as usize]))
            .collect();
        client.send_batch(&mut batch).unwrap();
        assert!(batch.is_empty());
        for i in 0..40u8 {
            let frame = server.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(frame, Frame::new(9, vec![i; i as usize]));
        }
        assert_eq!(server.try_recv().unwrap(), None);
        assert_eq!(
            server.recv_timeout(Duration::from_millis(5)).unwrap_err(),
            NetError::Timeout
        );

        // Peer close surfaces as Disconnected after the buffer drains.
        server.send(Frame::new(5, vec![])).unwrap();
        server.close();
        assert_eq!(
            client
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .msg_type,
            5
        );
        assert_eq!(client.recv().unwrap_err(), NetError::Disconnected);

        // A batch to the closed peer is a typed error, not a panic or a
        // hang — more than the socket buffers hold, so the write must see
        // the close — and the caller gets its buffer back empty.
        let mut batch: Vec<Frame> = (0..64).map(|_| Frame::new(9, vec![0; 1 << 16])).collect();
        let err = client.send_batch(&mut batch).unwrap_err();
        assert!(
            matches!(err, NetError::Disconnected | NetError::Io(_)),
            "{err:?}"
        );
        assert!(batch.is_empty());

        // The listener's accept is a timed wait, and a second peer still
        // gets through afterwards.
        assert!(matches!(
            listener.accept_timeout(Duration::from_millis(5)),
            Err(NetError::Timeout)
        ));
        let _again = transport.connect(&dial).unwrap();
        listener.accept_timeout(Duration::from_secs(5)).unwrap();
    }

    #[test]
    fn tcp_loopback_roundtrip() {
        exercise(&TcpTransport::new(), "127.0.0.1:0");
    }

    #[cfg(unix)]
    #[test]
    fn uds_roundtrip() {
        let path = std::env::temp_dir().join(format!("bat-net-test-{}.sock", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        exercise(&UdsTransport::new(), &path);
        // Rebinding over the stale path works.
        let t = UdsTransport::new();
        let _l = t.listen(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn uds_pair_streams_frames() {
        let (a, b) = UnixStream::pair().unwrap();
        let a = SocketConn::from_unix(a).unwrap();
        let b = SocketConn::from_unix(b).unwrap();
        for i in 0..50u8 {
            a.send(Frame::new(9, vec![i; i as usize])).unwrap();
        }
        for i in 0..50u8 {
            let f = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(f.payload, vec![i; i as usize]);
        }
        assert_eq!(b.try_recv().unwrap(), None);
        drop(a);
        assert_eq!(b.recv().unwrap_err(), NetError::Disconnected);
    }

    #[test]
    fn garbage_on_the_wire_is_a_typed_error_not_a_panic() {
        let listener = TcpTransport::new().listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let mut raw = TcpStream::connect(&addr).unwrap();
        let server = listener.accept_timeout(Duration::from_secs(5)).unwrap();
        raw.write_all(b"this is not a bat-net frame at all!!")
            .unwrap();
        raw.flush().unwrap();
        drop(raw);
        let err = server.recv_timeout(Duration::from_secs(5)).unwrap_err();
        assert!(
            matches!(err, NetError::BadMagic { .. }),
            "expected BadMagic, got {err:?}"
        );
    }

    #[test]
    fn connect_to_nothing_is_invalid_address() {
        assert!(matches!(
            TcpTransport::new().connect("127.0.0.1:1"),
            Err(NetError::InvalidAddress(_))
        ));
    }
}
