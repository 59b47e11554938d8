//! The versioned length-prefixed frame format.
//!
//! Messages cross the wire in frames of one or more messages of one tag:
//!
//! ```text
//!  offset  size  field
//!       0     4  magic        0xBA7C0DE5, little-endian
//!       4     1  version      protocol version (currently 5)
//!       5     1  msg_type     message vocabulary tag (see `messages`)
//!       6     2  reserved     must be zero
//!       8     4  payload_len  little-endian byte count of the payload
//!      12     4  header_crc   CRC-32 (IEEE) over bytes 0..12
//!      16     …  payload      `payload_len` bytes: the messages, back to back
//! ```
//!
//! The CRC covers the header only: it is the cheap guard that keeps a
//! corrupted or desynchronized length prefix from turning into a bogus
//! multi-megabyte allocation or a misframed stream. Payload integrity is
//! the codec's job (decoders reject short, long, or nonsensical payloads
//! with [`NetError::Decode`]).

use crate::error::NetError;
use std::io::{Read, Write};

/// Frame magic: "BAT CODEC", eight hex digits of pure vanity.
pub const MAGIC: u32 = 0xBA7C_0DE5;

/// Current protocol version. Bump on any incompatible header or codec
/// change; peers reject mismatches with [`NetError::BadVersion`]. Version 2
/// dropped [`crate::HelloMsg`]'s batching and cost parameters. Version 3
/// retired tags 6–8 (the meta command, meta response and fault event),
/// version 4 tag 4 (the orphan bounce), and version 5 lets a frame carry
/// several messages of its tag (a one-message frame is otherwise 4's).
pub const VERSION: u8 = 5;

/// Encoded header size in bytes.
pub const HEADER_LEN: usize = 16;

/// Hard ceiling on payload size (64 MiB): larger than any KV segment this
/// workspace ships, small enough that a corrupted length can't OOM us.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// One protocol frame: a message-type tag plus its encoded payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message vocabulary tag (see the `messages` module constants).
    pub msg_type: u8,
    /// One or more messages of that type, back to back.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a frame from a tag and payload.
    pub fn new(msg_type: u8, payload: Vec<u8>) -> Self {
        Frame { msg_type, payload }
    }

    /// Total encoded size (header + payload).
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }
}

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), the classic reflected
/// table-driven implementation. Table built at compile time.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut k = 0;
            while k < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                k += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Encodes the header of a frame with tag `msg_type` and `payload_len`
/// payload bytes.
fn encode_header(msg_type: u8, payload_len: usize) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&MAGIC.to_le_bytes());
    h[4] = VERSION;
    h[5] = msg_type;
    h[8..12].copy_from_slice(&(payload_len as u32).to_le_bytes());
    let crc = crc32(&h[..12]);
    h[12..].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Encodes a frame into a fresh byte vector.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame.wire_len());
    out.extend_from_slice(&encode_header(frame.msg_type, frame.payload.len()));
    out.extend_from_slice(&frame.payload);
    out
}

/// Validates a header and returns `(msg_type, payload_len)`.
///
/// # Errors
///
/// [`NetError::BadMagic`], [`NetError::BadVersion`], [`NetError::Decode`]
/// (nonzero reserved bytes), [`NetError::BadHeaderCrc`], or
/// [`NetError::FrameTooLarge`], checked in that order.
pub fn decode_header(h: &[u8; HEADER_LEN]) -> Result<(u8, usize), NetError> {
    let magic = u32::from_le_bytes([h[0], h[1], h[2], h[3]]);
    if magic != MAGIC {
        return Err(NetError::BadMagic { found: magic });
    }
    if h[4] != VERSION {
        return Err(NetError::BadVersion { found: h[4] });
    }
    if h[6] != 0 || h[7] != 0 {
        return Err(NetError::Decode("nonzero reserved header bytes".into()));
    }
    let claimed = u32::from_le_bytes([h[12], h[13], h[14], h[15]]);
    let computed = crc32(&h[..12]);
    if computed != claimed {
        return Err(NetError::BadHeaderCrc { computed, claimed });
    }
    let len = u32::from_le_bytes([h[8], h[9], h[10], h[11]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(NetError::FrameTooLarge {
            len,
            max: MAX_PAYLOAD,
        });
    }
    Ok((h[5], len))
}

/// Decodes one frame from an in-memory buffer, returning the frame and the
/// number of bytes consumed.
///
/// # Errors
///
/// Any header error from [`decode_header`], or [`NetError::Truncated`]
/// when the buffer ends before the header or declared payload does.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), NetError> {
    if buf.len() < HEADER_LEN {
        return Err(NetError::Truncated {
            needed: HEADER_LEN,
            got: buf.len(),
        });
    }
    let mut h = [0u8; HEADER_LEN];
    h.copy_from_slice(&buf[..HEADER_LEN]);
    let (msg_type, len) = decode_header(&h)?;
    if buf.len() < HEADER_LEN + len {
        return Err(NetError::Truncated {
            needed: HEADER_LEN + len,
            got: buf.len(),
        });
    }
    Ok((
        Frame {
            msg_type,
            payload: buf[HEADER_LEN..HEADER_LEN + len].to_vec(),
        },
        HEADER_LEN + len,
    ))
}

/// Writes one frame to a byte stream (header + payload, no flush).
///
/// # Errors
///
/// Propagates the writer's I/O errors as typed [`NetError`]s.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), NetError> {
    w.write_all(&encode_header(frame.msg_type, frame.payload.len()))?;
    w.write_all(&frame.payload)?;
    Ok(())
}

/// Reads one frame from a byte stream.
///
/// A clean EOF *before the first header byte* is [`NetError::Disconnected`]
/// (the peer closed between frames); an EOF mid-header or mid-payload is
/// [`NetError::Truncated`] (the peer died mid-send, or the stream is
/// corrupt).
///
/// # Errors
///
/// [`NetError::Disconnected`], [`NetError::Truncated`], any header error
/// from [`decode_header`], or a typed I/O failure.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, NetError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_or(r, &mut header, true)?;
    let (msg_type, len) = decode_header(&header)?;
    let mut payload = vec![0u8; len];
    read_exact_or(r, &mut payload, false)?;
    Ok(Frame { msg_type, payload })
}

/// `read_exact` with typed errors: EOF at offset 0 of the *first* read of a
/// frame means a clean disconnect; EOF anywhere else means truncation.
fn read_exact_or(
    r: &mut impl Read,
    buf: &mut [u8],
    eof_is_disconnect: bool,
) -> Result<(), NetError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if eof_is_disconnect && filled == 0 {
                    Err(NetError::Disconnected)
                } else {
                    Err(NetError::Truncated {
                        needed: buf.len(),
                        got: filled,
                    })
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrips_through_bytes() {
        let f = Frame::new(7, vec![1, 2, 3, 4, 5]);
        let bytes = encode_frame(&f);
        assert_eq!(bytes.len(), f.wire_len());
        let (back, used) = decode_frame(&bytes).unwrap();
        assert_eq!(back, f);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn empty_payload_roundtrips() {
        let f = Frame::new(0, vec![]);
        let (back, used) = decode_frame(&encode_frame(&f)).unwrap();
        assert_eq!(back, f);
        assert_eq!(used, HEADER_LEN);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = encode_frame(&Frame::new(1, vec![9]));
        bytes[0] ^= 0xFF;
        assert!(matches!(
            decode_frame(&bytes),
            Err(NetError::BadMagic { .. })
        ));
    }

    #[test]
    fn bad_version_is_typed() {
        for found in [2, 3, 4, VERSION + 1] {
            let mut bytes = encode_frame(&Frame::new(1, vec![9]));
            bytes[4] = found;
            assert_eq!(
                decode_frame(&bytes).unwrap_err(),
                NetError::BadVersion { found }
            );
        }
    }

    #[test]
    fn flipped_header_bit_fails_crc() {
        let mut bytes = encode_frame(&Frame::new(1, vec![9; 32]));
        bytes[9] ^= 0x10; // corrupt the length field
        assert!(matches!(
            decode_frame(&bytes),
            Err(NetError::BadHeaderCrc { .. })
        ));
    }

    #[test]
    fn truncation_is_typed_at_every_cut() {
        let bytes = encode_frame(&Frame::new(3, vec![1, 2, 3, 4, 5, 6, 7]));
        for cut in 0..bytes.len() {
            let err = decode_frame(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, NetError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = encode_frame(&Frame::new(1, vec![]));
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&bytes[..12]);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(NetError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn stream_read_distinguishes_disconnect_from_truncation() {
        let bytes = encode_frame(&Frame::new(2, vec![1, 2, 3]));
        // Clean EOF between frames.
        let mut empty: &[u8] = &[];
        assert_eq!(read_frame(&mut empty).unwrap_err(), NetError::Disconnected);
        // EOF mid-header.
        let mut cut: &[u8] = &bytes[..7];
        assert!(matches!(
            read_frame(&mut cut).unwrap_err(),
            NetError::Truncated { .. }
        ));
        // EOF mid-payload.
        let mut cut: &[u8] = &bytes[..HEADER_LEN + 1];
        assert!(matches!(
            read_frame(&mut cut).unwrap_err(),
            NetError::Truncated { .. }
        ));
        // Whole frame.
        let mut whole: &[u8] = &bytes;
        assert_eq!(read_frame(&mut whole).unwrap().payload, vec![1, 2, 3]);
    }
}
