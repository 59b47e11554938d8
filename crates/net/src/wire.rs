//! Primitive byte codecs and the [`WireCodec`] trait.
//!
//! Everything is little-endian and fixed-width; floats travel as their IEEE
//! bit patterns (`to_bits`/`from_bits`), so a value round-trips *bitwise* —
//! the property the channel-vs-socket determinism pin depends on. Decoders
//! never index past the buffer: every read goes through [`WireReader`],
//! which returns [`NetError::Truncated`] instead of panicking, and
//! [`WireReader::finish`] rejects trailing garbage, so a frame is exactly
//! its messages, back to back, or a typed error.

use crate::error::NetError;
use crate::frame::Frame;

/// Cursor over a message payload with typed, non-panicking reads.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.remaining() < n {
            return Err(NetError::Truncated {
                needed: self.pos + n,
                got: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`NetError::Truncated`] when the payload is exhausted.
    pub fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`NetError::Truncated`] when the payload is exhausted.
    pub fn u32(&mut self) -> Result<u32, NetError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`NetError::Truncated`] when the payload is exhausted.
    pub fn u64(&mut self) -> Result<u64, NetError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its IEEE bit pattern (bitwise-exact, NaNs
    /// included).
    ///
    /// # Errors
    ///
    /// [`NetError::Truncated`] when the payload is exhausted.
    pub fn f64(&mut self) -> Result<f64, NetError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool` encoded as exactly 0 or 1.
    ///
    /// # Errors
    ///
    /// [`NetError::Truncated`] on exhaustion, [`NetError::Decode`] on any
    /// byte other than 0/1.
    pub fn bool(&mut self) -> Result<bool, NetError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(NetError::Decode(format!("bool byte {other}"))),
        }
    }

    /// Reads an `Option<f64>`: a presence byte then the bits when present.
    ///
    /// # Errors
    ///
    /// [`NetError::Truncated`] or [`NetError::Decode`] on a bad tag.
    pub fn opt_f64(&mut self) -> Result<Option<f64>, NetError> {
        if self.bool()? {
            Ok(Some(self.f64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads `n` f32s (e.g. one ColBlock plane).
    ///
    /// # Errors
    ///
    /// [`NetError::Truncated`] when the payload is exhausted.
    pub fn f32_slice(&mut self, n: usize, out: &mut Vec<f32>) -> Result<(), NetError> {
        let bytes = self.take(
            n.checked_mul(4)
                .ok_or(NetError::Decode("f32 slice length overflows".into()))?,
        )?;
        out.reserve(n);
        for chunk in bytes.chunks_exact(4) {
            out.push(f32::from_bits(u32::from_le_bytes([
                chunk[0], chunk[1], chunk[2], chunk[3],
            ])));
        }
        Ok(())
    }

    /// Asserts the payload is fully consumed.
    ///
    /// # Errors
    ///
    /// [`NetError::Decode`] when trailing bytes remain.
    pub fn finish(self) -> Result<(), NetError> {
        if self.remaining() != 0 {
            return Err(NetError::Decode(format!(
                "{} trailing bytes after message",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Appends a `u32` little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE bit pattern.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a `bool` as one byte.
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

/// Appends an `Option<f64>` as presence byte + bits.
pub fn put_opt_f64(buf: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(x) => {
            put_bool(buf, true);
            put_f64(buf, x);
        }
        None => put_bool(buf, false),
    }
}

/// A message that crosses the wire in frames of one or more of its type.
pub trait WireCodec: Sized {
    /// The frame-header tag identifying this message type.
    const MSG_TYPE: u8;

    /// Appends this message's payload bytes to `buf`.
    fn encode_payload(&self, buf: &mut Vec<u8>);

    /// Decodes one message at the reader's position (callers go through
    /// [`WireCodec::from_frame`] or [`WireCodec::batch_from_frame`]).
    ///
    /// # Errors
    ///
    /// [`NetError::Truncated`] or [`NetError::Decode`] on malformed bytes.
    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self, NetError>;

    /// Encodes `msgs`, back to back in order, into one frame. An empty
    /// slice makes a frame no decoder takes.
    fn batch_to_frame(msgs: &[Self]) -> Frame {
        let mut payload = Vec::new();
        for msg in msgs {
            msg.encode_payload(&mut payload);
        }
        Frame::new(Self::MSG_TYPE, payload)
    }

    /// Encodes into a ready-to-send one-message frame.
    fn to_frame(&self) -> Frame {
        Self::batch_to_frame(std::slice::from_ref(self))
    }

    /// Appends every message of `frame` to `out`, in order. On an error
    /// `out` is left as it was.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownMsgType`] on a tag mismatch, plus any payload
    /// decode error: [`NetError::Truncated`] for a payload that ends inside
    /// a message, an empty one included (but for a zero-byte message).
    fn batch_from_frame(frame: &Frame, out: &mut Vec<Self>) -> Result<(), NetError> {
        let (mut r, len) = (payload_of::<Self>(frame)?, out.len());
        loop {
            let left = r.remaining();
            let msg = Self::decode_payload(&mut r).inspect_err(|_| out.truncate(len))?;
            out.push(msg);
            // A zero-byte message (a shutdown) ends the frame.
            if r.remaining() == 0 || r.remaining() == left {
                return r.finish().inspect_err(|_| out.truncate(len));
            }
        }
    }

    /// Decodes a one-message frame.
    ///
    /// # Errors
    ///
    /// As [`WireCodec::batch_from_frame`], plus [`NetError::Decode`] when
    /// bytes remain after the message — a second one, or garbage.
    fn from_frame(frame: &Frame) -> Result<Self, NetError> {
        let mut r = payload_of::<Self>(frame)?;
        let msg = Self::decode_payload(&mut r)?;
        r.finish()?;
        Ok(msg)
    }
}

/// `frame`'s payload, once its tag is `M`'s.
fn payload_of<M: WireCodec>(frame: &Frame) -> Result<WireReader<'_>, NetError> {
    if frame.msg_type != M::MSG_TYPE {
        return Err(NetError::UnknownMsgType(frame.msg_type));
    }
    Ok(WireReader::new(&frame.payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip_bitwise() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX - 3);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::NAN);
        put_opt_f64(&mut buf, None);
        put_opt_f64(&mut buf, Some(1.5e-300));
        put_bool(&mut buf, true);
        put_u32(&mut buf, (f32::MIN_POSITIVE / 2.0).to_bits()); // subnormal
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.opt_f64().unwrap(), None);
        assert_eq!(r.opt_f64().unwrap(), Some(1.5e-300));
        assert!(r.bool().unwrap());
        let mut planes = Vec::new();
        r.f32_slice(1, &mut planes).unwrap();
        assert_eq!(planes, [f32::MIN_POSITIVE / 2.0]);
        r.finish().unwrap();
    }

    #[test]
    fn exhausted_reader_is_truncated_not_panic() {
        let mut r = WireReader::new(&[1, 2, 3]);
        assert!(matches!(r.u64(), Err(NetError::Truncated { .. })));
        // The failed read consumed nothing; smaller reads still work.
        assert_eq!(r.u8().unwrap(), 1);
    }

    #[test]
    fn bad_bool_and_trailing_bytes_are_decode_errors() {
        let mut r = WireReader::new(&[7]);
        assert!(matches!(r.bool(), Err(NetError::Decode(_))));
        let r = WireReader::new(&[0, 0]);
        assert!(matches!(r.finish(), Err(NetError::Decode(_))));
    }
}
