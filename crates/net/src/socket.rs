//! Real socket backends: Unix domain sockets and loopback TCP.
//!
//! Both speak the versioned length-prefixed frame protocol from
//! [`crate::frame`]. A [`SocketConn`] is read in place by the one thread
//! that receives on it: `recv` blocks in `read_frame` on the connection's
//! read buffer, and `try_recv` hands out a frame only when the whole frame
//! — header and payload — already sits in that buffer, so it makes no
//! system call and can never leave the stream split mid-frame.
//!
//! The first receive error is parked and returned by every later receive.
//! The kernel delivers a socket's queued bytes before its end of stream, so
//! a peer that sends five frames and crashes still delivers all five.
//!
//! The send side buffers: [`Conn::send`] writes a frame's header and
//! payload into the connection's `BufWriter` under the writer lock and
//! flushes once, so a frame that fits the buffer costs one `write` call.
//!
//! A [`SocketListener`] accepts through a pump thread that blocks in
//! `accept` and queues wrapped connections, so a bounded-wait accept is a
//! timed channel receive, not a non-blocking poll.

use crate::error::NetError;
use crate::frame::{decode_frame, read_frame, write_frame, Frame};
use crate::transport::{lock, Conn, Listener, Transport};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::Duration;

/// Bytes a [`SocketConn`] buffers each way: a 1 024-round dispatch frame
/// (≈ 34 KB) leaves in one write and arrives in one read.
const BUFFER: usize = 64 << 10;

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
        // Best-effort: unblocks a receive blocked in a read; an
        // already-dead socket is fine.
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

/// A [`Conn`] over a real OS socket, read in place by its receiver.
pub struct SocketConn {
    writer: Mutex<BufWriter<Stream>>,
    /// The read buffer, and the error that ended the stream once one has.
    reader: Mutex<(BufReader<Stream>, Option<NetError>)>,
    /// A third handle to the same socket, kept for `close` to shut the
    /// stream down without waiting for either lock.
    raw: Stream,
}

impl SocketConn {
    fn wrap(stream: Stream) -> Result<Arc<SocketConn>, NetError> {
        if let Stream::Tcp(tcp) = &stream {
            tcp.set_nodelay(true).ok();
        }
        let reader = BufReader::with_capacity(BUFFER, stream.try_clone()?);
        Ok(Arc::new(SocketConn {
            writer: Mutex::new(BufWriter::with_capacity(BUFFER, stream.try_clone()?)),
            reader: Mutex::new((reader, None)),
            raw: stream,
        }))
    }

    /// Wraps an accepted or dialed TCP stream.
    pub fn from_tcp(stream: TcpStream) -> Result<Arc<SocketConn>, NetError> {
        Self::wrap(Stream::Tcp(stream))
    }

    /// Wraps an accepted or dialed Unix-domain stream.
    #[cfg(unix)]
    pub fn from_unix(stream: UnixStream) -> Result<Arc<SocketConn>, NetError> {
        Self::wrap(Stream::Unix(stream))
    }
}

/// Parks the first error a receive hits, so every later receive returns it.
fn park(fate: &mut Option<NetError>, e: NetError) -> NetError {
    fate.get_or_insert(e).clone()
}

impl Conn for SocketConn {
    fn send(&self, frame: Frame) -> Result<(), NetError> {
        let mut w = lock(&self.writer);
        write_frame(&mut *w, &frame)?;
        w.flush()?;
        Ok(())
    }

    fn recv(&self) -> Result<Frame, NetError> {
        let mut guard = lock(&self.reader);
        let (reader, fate) = &mut *guard;
        if let Some(e) = fate {
            return Err(e.clone());
        }
        read_frame(reader).map_err(|e| park(fate, e))
    }

    fn try_recv(&self) -> Result<Option<Frame>, NetError> {
        let mut guard = match self.reader.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return Ok(None),
        };
        let (reader, fate) = &mut *guard;
        if let Some(e) = fate {
            return Err(e.clone());
        }
        match decode_frame(reader.buffer()) {
            Ok((frame, used)) => {
                reader.consume(used);
                Ok(Some(frame))
            }
            // The rest of the next frame has not been read off the socket.
            Err(NetError::Truncated { .. }) => Ok(None),
            Err(e) => Err(park(fate, e)),
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
    /// What the pump accepted; locked because a [`Listener`] is shared.
    incoming: Mutex<Receiver<Result<Arc<SocketConn>, NetError>>>,
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
        let (tx, rx) = channel();
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
            let conn = stream.map_err(NetError::from).and_then(SocketConn::wrap);
            let last = conn.is_err();
            if tx.send(conn).is_err() || last {
                break;
            }
        });
        Box::new(SocketListener {
            incoming: Mutex::new(rx),
            closed,
            addr,
            unix,
        })
    }
}

impl Listener for SocketListener {
    fn accept(&self) -> Result<Arc<dyn Conn>, NetError> {
        let conn = lock(&self.incoming).recv();
        Ok(conn.map_err(|_| NetError::Disconnected)?? as Arc<dyn Conn>)
    }

    fn accept_timeout(&self, timeout: Duration) -> Result<Arc<dyn Conn>, NetError> {
        Ok(lock(&self.incoming).recv_timeout(timeout)?? as Arc<dyn Conn>)
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
    use crate::frame::{encode_frame, HEADER_LEN};
    use crate::messages::{CompletionMsg, DispatchMsg, KvSegmentMsg, WireOutcome};
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
        let got = DispatchMsg::from_frame(&server.recv().unwrap()).unwrap();
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
        let got = CompletionMsg::from_frame(&client.recv().unwrap()).unwrap();
        assert_eq!(got, c);

        // A 1 024-round dispatch frame arrives whole, its rounds in order.
        let rounds: Vec<DispatchMsg> = (0..1024).map(|seq| DispatchMsg { seq, ..d }).collect();
        client.send(DispatchMsg::batch_to_frame(&rounds)).unwrap();
        let mut got = Vec::new();
        DispatchMsg::batch_from_frame(&server.recv().unwrap(), &mut got).unwrap();
        assert_eq!(got, rounds);
        assert_eq!(server.try_recv().unwrap(), None);

        // Peer close surfaces as Disconnected after the buffer drains.
        server.send(Frame::new(5, vec![])).unwrap();
        server.close();
        assert_eq!(client.recv().unwrap().msg_type, 5);
        assert_eq!(client.recv().unwrap_err(), NetError::Disconnected);

        // A frame to the closed peer is a typed error, not a panic or a
        // hang — more than the socket buffers hold, so the write must see
        // the close.
        let err = client.send(Frame::new(9, vec![0; 4 << 20])).unwrap_err();
        assert!(
            matches!(err, NetError::Disconnected | NetError::Io(_)),
            "{err:?}"
        );

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
            let f = b.recv().unwrap();
            assert_eq!(f.payload, vec![i; i as usize]);
        }
        assert_eq!(b.try_recv().unwrap(), None);
        drop(a);
        assert_eq!(b.recv().unwrap_err(), NetError::Disconnected);
    }

    #[cfg(unix)]
    #[test]
    fn try_recv_never_returns_a_partial_frame() {
        // A frame written in three pieces: `recv` of a leading frame lands
        // the first piece in the read buffer, and `try_recv` must neither
        // return nor consume it wherever the cut falls (inside the header,
        // right after it, inside the payload), nor read the later pieces
        // off the socket; `recv` then returns the frame whole.
        let (mut raw, theirs) = UnixStream::pair().unwrap();
        let conn = SocketConn::from_unix(theirs).unwrap();
        let lead = Frame::new(1, vec![1; 3]);
        let frame = Frame::new(9, (0..=200u8).collect());
        let bytes = encode_frame(&frame);
        for cut in [5, HEADER_LEN, bytes.len() - 1] {
            let (first, rest) = bytes.split_at(cut);
            let (second, third) = rest.split_at(rest.len() / 2);
            raw.write_all(&[encode_frame(&lead).as_slice(), first].concat())
                .unwrap();
            assert_eq!(conn.recv().unwrap(), lead);
            assert_eq!(conn.try_recv().unwrap(), None, "cut at {cut}");
            raw.write_all(second).unwrap();
            assert_eq!(conn.try_recv().unwrap(), None, "cut at {cut}");
            raw.write_all(third).unwrap();
            assert_eq!(conn.recv().unwrap(), frame, "cut at {cut}");
        }
        // Once the whole frame sits behind the leader, `try_recv` hands it
        // out exactly, and then has nothing.
        raw.write_all(&[encode_frame(&lead), bytes].concat())
            .unwrap();
        assert_eq!(conn.recv().unwrap(), lead);
        assert_eq!(conn.try_recv().unwrap(), Some(frame));
        assert_eq!(conn.try_recv().unwrap(), None);
    }

    #[cfg(unix)]
    #[test]
    fn frames_larger_than_the_read_buffer_arrive_whole() {
        let (a, b) = UnixStream::pair().unwrap();
        let (a, b) = (
            SocketConn::from_unix(a).unwrap(),
            SocketConn::from_unix(b).unwrap(),
        );
        let segments: Vec<KvSegmentMsg> = (0..4u32)
            .map(|layer| {
                let (rows, cols) = (256u32, 70 + 30 * layer);
                KvSegmentMsg {
                    key: bat_kvcache::CacheKey::Item(bat_types::ItemId::new(7)),
                    layer,
                    rows,
                    cols,
                    planes: (0..rows * cols).map(|i| (i ^ layer) as f32 * 0.5).collect(),
                }
            })
            .collect();
        assert!(segments[0].to_frame().wire_len() > BUFFER);
        let sent = segments.clone();
        // More than the socket buffers hold: the writer needs the reader.
        let writer = std::thread::spawn(move || {
            for segment in &sent {
                a.send(segment.to_frame()).unwrap();
            }
            a.send(Frame::new(5, vec![5])).unwrap();
        });
        for segment in &segments {
            assert_eq!(
                KvSegmentMsg::from_frame(&b.recv().unwrap()).unwrap(),
                *segment
            );
        }
        assert_eq!(b.recv().unwrap(), Frame::new(5, vec![5]));
        writer.join().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn close_unblocks_a_blocked_recv() {
        let (a, b) = UnixStream::pair().unwrap();
        let (_a, b) = (
            SocketConn::from_unix(a).unwrap(),
            SocketConn::from_unix(b).unwrap(),
        );
        let (entered, entering) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let blocked = scope.spawn(|| {
                entered.send(()).unwrap();
                b.recv()
            });
            entering.recv().unwrap();
            // The peer is alive and silent: only the close can end it.
            b.close();
            assert_eq!(blocked.join().unwrap(), Err(NetError::Disconnected));
        });
        assert_eq!(b.recv(), Err(NetError::Disconnected));
        assert_eq!(b.try_recv(), Err(NetError::Disconnected));
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
        let err = server.recv().unwrap_err();
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
