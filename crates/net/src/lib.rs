//! # bat-net — the pluggable transport layer
//!
//! Everything the serving runtime sends between its scheduler and workers
//! crosses one seam: the [`Transport`] trait. This crate owns that seam and
//! both sides of it:
//!
//! - **Frame protocol** ([`frame`]): versioned length-prefixed binary
//!   frames — magic, version, message type, payload length, header CRC —
//!   with typed [`NetError`]s for every way bytes can go wrong.
//! - **Message vocabulary** ([`messages`]): hand-rolled bitwise-exact
//!   codecs for hello, dispatch, completion, shutdown, and plane-major
//!   packed-KV segments.
//! - **Backends**: [`ChannelTransport`] moves frames through in-process
//!   condvar pipes (the deterministic oracle); [`UdsTransport`] and
//!   [`TcpTransport`] move the same frames over real OS sockets.
//!
//! The discipline that makes the socket path trustworthy: the channel
//! backend is correct by construction (no serialization, no partial
//! reads), and the integration suite pins that a serving run over sockets
//! produces **bitwise-identical** deterministic stats to the same run over
//! channels — same seeded trace, same fault schedule, same digest. Any
//! framing, codec, or reconnection bug breaks that pin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod frame;
pub mod messages;
pub mod socket;
pub mod transport;
pub mod wire;

pub use error::NetError;
pub use frame::{
    crc32, decode_frame, decode_header, encode_frame, read_frame, write_frame, Frame, HEADER_LEN,
    MAGIC, MAX_PAYLOAD, VERSION,
};
pub use messages::{
    CompletionMsg, DispatchMsg, HelloMsg, KvSegmentMsg, ShutdownMsg, WireOutcome, MSG_COMPLETION,
    MSG_DISPATCH, MSG_HELLO, MSG_KV_SEGMENT, MSG_SHUTDOWN,
};
#[cfg(unix)]
pub use socket::UdsTransport;
pub use socket::{SocketConn, TcpTransport};
pub use transport::{recv_msg, send_msg, ChannelConn, ChannelTransport, Conn, Listener, Transport};
pub use wire::{WireCodec, WireReader};
