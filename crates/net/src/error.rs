//! The transport layer's typed error vocabulary.
//!
//! Every failure mode a frame can hit on the wire has its own variant, so
//! callers (and tests) can distinguish "the peer went away" from "the bytes
//! are garbage" without string matching. Nothing in this crate panics on
//! malformed input: corrupt or truncated frames always surface as one of
//! these.

use std::error::Error;
use std::fmt;
use std::sync::mpsc::RecvTimeoutError;

/// Errors surfaced by the pluggable transport layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// The peer closed the connection (or every channel endpoint dropped).
    Disconnected,
    /// A blocking operation exceeded its deadline.
    Timeout,
    /// The stream ended mid-frame: `got` of `needed` bytes arrived.
    Truncated {
        /// Bytes required to finish the header or payload.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The frame header's magic bytes are wrong — the peer is not speaking
    /// the bat-net protocol (or the stream lost sync).
    BadMagic {
        /// The 32-bit value found where the magic was expected.
        found: u32,
    },
    /// The frame header carries an unsupported protocol version.
    BadVersion {
        /// The version byte found.
        found: u8,
    },
    /// The header checksum does not match its contents: bit corruption.
    BadHeaderCrc {
        /// CRC computed over the received header bytes.
        computed: u32,
        /// CRC the header claimed.
        claimed: u32,
    },
    /// The header's declared payload length exceeds the protocol maximum
    /// (defends against allocating attacker- or corruption-sized buffers).
    FrameTooLarge {
        /// Declared payload length.
        len: usize,
        /// Maximum the protocol accepts.
        max: usize,
    },
    /// The payload's message type byte is not one this build understands.
    UnknownMsgType(u8),
    /// The payload failed to decode as its declared message type.
    Decode(String),
    /// An operating-system socket error outside the cases above.
    Io(String),
    /// The transport rejected an address or option at setup time.
    InvalidAddress(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::Timeout => write!(f, "operation timed out"),
            NetError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            NetError::BadMagic { found } => {
                write!(f, "bad frame magic {found:#010x}")
            }
            NetError::BadVersion { found } => {
                write!(f, "unsupported protocol version {found}")
            }
            NetError::BadHeaderCrc { computed, claimed } => write!(
                f,
                "header checksum mismatch: computed {computed:#010x}, claimed {claimed:#010x}"
            ),
            NetError::FrameTooLarge { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte maximum"
                )
            }
            NetError::UnknownMsgType(t) => write!(f, "unknown message type {t}"),
            NetError::Decode(msg) => write!(f, "payload decode failed: {msg}"),
            NetError::Io(msg) => write!(f, "socket error: {msg}"),
            NetError::InvalidAddress(msg) => write!(f, "invalid address: {msg}"),
        }
    }
}

impl Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
            | ErrorKind::NotConnected => NetError::Disconnected,
            ErrorKind::WouldBlock | ErrorKind::TimedOut => NetError::Timeout,
            _ => NetError::Io(e.to_string()),
        }
    }
}

impl From<RecvTimeoutError> for NetError {
    fn from(e: RecvTimeoutError) -> Self {
        match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::Disconnected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        assert_eq!(NetError::Disconnected.to_string(), "peer disconnected");
        assert!(NetError::BadMagic { found: 0xdead }
            .to_string()
            .contains("0x0000dead"));
        assert!(NetError::Truncated { needed: 16, got: 3 }
            .to_string()
            .contains("needed 16"));
    }

    #[test]
    fn io_errors_map_to_typed_variants() {
        use std::io::{Error, ErrorKind};
        assert_eq!(
            NetError::from(Error::new(ErrorKind::UnexpectedEof, "eof")),
            NetError::Disconnected
        );
        assert_eq!(
            NetError::from(Error::new(ErrorKind::TimedOut, "slow")),
            NetError::Timeout
        );
        assert!(matches!(
            NetError::from(Error::other("weird")),
            NetError::Io(_)
        ));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetError>();
    }
}
