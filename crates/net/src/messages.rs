//! The wire vocabulary: every control- and data-plane message the serving
//! runtime exchanges, with hand-rolled fixed-layout codecs.
//!
//! | tag | message | direction | role |
//! |-----|---------|-----------|------|
//! | 1 | [`HelloMsg`] | scheduler → worker | handshake: index + clock base |
//! | 2 | [`DispatchMsg`] | scheduler → worker | one priced job (a round); a frame carries a link's rounds |
//! | 3 | [`CompletionMsg`] | worker → scheduler | terminal outcome of a job; a frame carries a worker's replies |
//! | 5 | [`ShutdownMsg`] | scheduler → worker | drain and exit |
//! | 9 | [`KvSegmentMsg`] | worker ↔ worker | one packed KV layer, plane-major |
//!
//! Tags 4 (the orphan bounce; retired in wire version 4) and 6–8 (meta
//! command, meta response, fault event; version 3) are retired: no decoder
//! takes them. The current version is [`crate::VERSION`].
//!
//! Codecs are deliberately explicit (no serde): the byte layout *is* the
//! protocol, floats travel as bit patterns, and every decoder returns a
//! typed [`NetError`] on malformed input instead of panicking.

use crate::error::NetError;
use crate::wire::{put_bool, put_f64, put_opt_f64, put_u32, put_u64, WireCodec, WireReader};
use bat_kvcache::CacheKey;
use bat_tensor::ColBlock;
use bat_types::{ItemId, RejectReason, UserId};

/// Frame tag of [`HelloMsg`].
pub const MSG_HELLO: u8 = 1;
/// Frame tag of [`DispatchMsg`].
pub const MSG_DISPATCH: u8 = 2;
/// Frame tag of [`CompletionMsg`].
pub const MSG_COMPLETION: u8 = 3;
/// Frame tag of [`ShutdownMsg`].
pub const MSG_SHUTDOWN: u8 = 5;
/// Frame tag of [`KvSegmentMsg`].
pub const MSG_KV_SEGMENT: u8 = 9;

/// Handshake sent by the scheduler as the first frame on every worker
/// connection (and again after a worker rejoins). Carries everything one
/// worker incarnation needs: its index and the virtual-clock base at send
/// time. Every later frame is a fully priced job, so the worker has no
/// batching or cost parameters of its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HelloMsg {
    /// The worker's index in the cluster.
    pub worker: u32,
    /// Wall-clock seconds per virtual second.
    pub scale: f64,
    /// Virtual time at the moment the scheduler sent this hello; the
    /// worker's clock base.
    pub virtual_now: f64,
}

impl WireCodec for HelloMsg {
    const MSG_TYPE: u8 = MSG_HELLO;

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.worker);
        put_f64(buf, self.scale);
        put_f64(buf, self.virtual_now);
    }

    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok(HelloMsg {
            worker: r.u32()?,
            scale: r.f64()?,
            virtual_now: r.f64()?,
        })
    }
}

/// One dispatched job: the priced durations and accounting the worker
/// needs, in virtual seconds. `seq` is the scheduler's per-run dispatch
/// sequence number; completions echo it so the scheduler can retire the
/// in-flight entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchMsg {
    /// Scheduler-assigned dispatch sequence number.
    pub seq: u64,
    /// Virtual arrival time at the scheduler.
    pub arrival_virtual: f64,
    /// Suffix tokens this job computes.
    pub suffix_tokens: u64,
    /// Priced service duration, virtual seconds.
    pub service_virtual: f64,
    /// Completion deadline relative to arrival, virtual seconds; `None`
    /// for best-effort.
    pub deadline_rel: Option<f64>,
}

impl WireCodec for DispatchMsg {
    const MSG_TYPE: u8 = MSG_DISPATCH;

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.seq);
        put_f64(buf, self.arrival_virtual);
        put_u64(buf, self.suffix_tokens);
        put_f64(buf, self.service_virtual);
        put_opt_f64(buf, self.deadline_rel);
    }

    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok(DispatchMsg {
            seq: r.u64()?,
            arrival_virtual: r.f64()?,
            suffix_tokens: r.u64()?,
            service_virtual: r.f64()?,
            deadline_rel: r.opt_f64()?,
        })
    }
}

/// Terminal outcome carried by a [`CompletionMsg`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireOutcome {
    /// Served to completion.
    Completed {
        /// End-to-end latency, virtual seconds.
        latency_virtual: f64,
        /// Whether the deadline had already passed at completion.
        missed: bool,
    },
    /// Swept from the queue after its deadline expired.
    Shed,
    /// Refused at admission (scheduler-internal outcome; carried for
    /// vocabulary completeness so one codec covers every terminal state).
    Rejected(RejectReason),
}

fn put_reject_reason(buf: &mut Vec<u8>, r: RejectReason) {
    buf.push(match r {
        RejectReason::QueueFull => 0,
        RejectReason::DeadlineInfeasible => 1,
        RejectReason::BrownoutShed => 2,
    });
}

fn get_reject_reason(r: &mut WireReader<'_>) -> Result<RejectReason, NetError> {
    match r.u8()? {
        0 => Ok(RejectReason::QueueFull),
        1 => Ok(RejectReason::DeadlineInfeasible),
        2 => Ok(RejectReason::BrownoutShed),
        other => Err(NetError::Decode(format!("reject reason tag {other}"))),
    }
}

/// One terminal event for one dispatched job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionMsg {
    /// Index of the worker that served (or shed) the job.
    pub worker: u32,
    /// Echo of the dispatch sequence number.
    pub seq: u64,
    /// Echo of the job's suffix tokens.
    pub suffix_tokens: u64,
    /// What happened.
    pub outcome: WireOutcome,
}

impl WireCodec for CompletionMsg {
    const MSG_TYPE: u8 = MSG_COMPLETION;

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.worker);
        put_u64(buf, self.seq);
        put_u64(buf, self.suffix_tokens);
        match self.outcome {
            WireOutcome::Completed {
                latency_virtual,
                missed,
            } => {
                buf.push(0);
                put_f64(buf, latency_virtual);
                put_bool(buf, missed);
            }
            WireOutcome::Shed => buf.push(1),
            WireOutcome::Rejected(reason) => {
                buf.push(2);
                put_reject_reason(buf, reason);
            }
        }
    }

    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let worker = r.u32()?;
        let seq = r.u64()?;
        let suffix_tokens = r.u64()?;
        let outcome = match r.u8()? {
            0 => WireOutcome::Completed {
                latency_virtual: r.f64()?,
                missed: r.bool()?,
            },
            1 => WireOutcome::Shed,
            2 => WireOutcome::Rejected(get_reject_reason(r)?),
            other => return Err(NetError::Decode(format!("outcome tag {other}"))),
        };
        Ok(CompletionMsg {
            worker,
            seq,
            suffix_tokens,
            outcome,
        })
    }
}

/// Orderly shutdown: the worker finishes its current batch and exits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShutdownMsg;

impl WireCodec for ShutdownMsg {
    const MSG_TYPE: u8 = MSG_SHUTDOWN;

    fn encode_payload(&self, _buf: &mut Vec<u8>) {}

    fn decode_payload(_r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok(ShutdownMsg)
    }
}

fn put_cache_key(buf: &mut Vec<u8>, key: CacheKey) {
    match key {
        CacheKey::User(u) => {
            buf.push(0);
            put_u64(buf, u.as_u64());
        }
        CacheKey::Item(i) => {
            buf.push(1);
            put_u64(buf, i.as_u64());
        }
    }
}

fn get_cache_key(r: &mut WireReader<'_>) -> Result<CacheKey, NetError> {
    match r.u8()? {
        0 => Ok(CacheKey::User(UserId::new(r.u64()?))),
        1 => Ok(CacheKey::Item(ItemId::new(r.u64()?))),
        other => Err(NetError::Decode(format!("cache key tag {other}"))),
    }
}

/// One packed KV layer on the wire: the cache entry's identity plus its
/// transposed-packed [`ColBlock`], written **plane-major** — plane 0's
/// columns contiguously, then plane 1's, and so on. This mirrors the
/// paper's RDMA story: each plane is one contiguous `memcpy`-able region
/// of the cache-resident layout, so serialization is a straight walk of
/// the block with no per-token gather.
#[derive(Debug, Clone, PartialEq)]
pub struct KvSegmentMsg {
    /// Which cache entry this layer belongs to.
    pub key: CacheKey,
    /// Transformer layer index.
    pub layer: u32,
    /// Plane count (`kv_dim`).
    pub rows: u32,
    /// Column count (tokens).
    pub cols: u32,
    /// `rows * cols` f32s, plane-major.
    pub planes: Vec<f32>,
}

impl KvSegmentMsg {
    /// Serializes one packed block (its live `len` columns; spare capacity
    /// is not shipped).
    ///
    /// # Panics
    ///
    /// Never: every block shape is representable.
    pub fn from_block(key: CacheKey, layer: u32, block: &ColBlock) -> Self {
        let rows = block.rows();
        let cols = block.len();
        let mut planes = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            planes.extend_from_slice(block.plane(r));
        }
        KvSegmentMsg {
            key,
            layer,
            rows: rows as u32,
            cols: cols as u32,
            planes,
        }
    }

    /// Reconstructs the packed block, plane-major in, plane-major out.
    pub fn to_block(&self) -> ColBlock {
        ColBlock::from_planes(self.rows as usize, self.cols as usize, &self.planes)
    }
}

impl WireCodec for KvSegmentMsg {
    const MSG_TYPE: u8 = MSG_KV_SEGMENT;

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        put_cache_key(buf, self.key);
        put_u32(buf, self.layer);
        put_u32(buf, self.rows);
        put_u32(buf, self.cols);
        buf.reserve(self.planes.len() * 4);
        for &v in &self.planes {
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let key = get_cache_key(r)?;
        let layer = r.u32()?;
        let rows = r.u32()?;
        let cols = r.u32()?;
        let n = (rows as usize)
            .checked_mul(cols as usize)
            .ok_or_else(|| NetError::Decode("KV segment shape overflows".into()))?;
        let mut planes = Vec::new();
        r.f32_slice(n, &mut planes)?;
        Ok(KvSegmentMsg {
            key,
            layer,
            rows,
            cols,
            planes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_frame, encode_frame, Frame};

    fn roundtrip<M: WireCodec + PartialEq + std::fmt::Debug>(msg: &M) {
        let frame = msg.to_frame();
        let (frame2, _) = decode_frame(&encode_frame(&frame)).unwrap();
        let back = M::from_frame(&frame2).unwrap();
        assert_eq!(&back, msg);
    }

    #[test]
    fn hello_is_index_scale_and_clock_base() {
        let hello = HelloMsg {
            worker: 3,
            scale: 1e-3,
            virtual_now: 0.25,
        };
        let frame = hello.to_frame();
        let mut layout = 3u32.to_le_bytes().to_vec();
        layout.extend(1e-3f64.to_bits().to_le_bytes());
        layout.extend(0.25f64.to_bits().to_le_bytes());
        assert_eq!(frame.payload, layout);
        roundtrip(&hello);
        // A version-1 hello carried the batching parameters behind these
        // twenty bytes; they are trailing garbage now.
        let mut v1 = frame;
        v1.payload.extend([0u8; 24]);
        assert!(matches!(
            HelloMsg::from_frame(&v1),
            Err(NetError::Decode(_))
        ));
    }

    #[test]
    fn every_message_type_roundtrips() {
        roundtrip(&HelloMsg {
            worker: 3,
            scale: 1e-3,
            virtual_now: 0.25,
        });
        roundtrip(&DispatchMsg {
            seq: 42,
            arrival_virtual: 1.75,
            suffix_tokens: 900,
            service_virtual: 0.02,
            deadline_rel: Some(0.2),
        });
        roundtrip(&CompletionMsg {
            worker: 1,
            seq: 42,
            suffix_tokens: 900,
            outcome: WireOutcome::Completed {
                latency_virtual: 0.031,
                missed: false,
            },
        });
        roundtrip(&CompletionMsg {
            worker: 0,
            seq: 7,
            suffix_tokens: 10,
            outcome: WireOutcome::Rejected(RejectReason::BrownoutShed),
        });
        roundtrip(&ShutdownMsg);
        let mut block = ColBlock::new(4);
        for j in 0..6 {
            let col: Vec<f32> = (0..4).map(|r| (r * 10 + j) as f32).collect();
            block.push_col(&col);
        }
        roundtrip(&KvSegmentMsg::from_block(
            CacheKey::Item(ItemId::new(12)),
            2,
            &block,
        ));
    }

    #[test]
    fn kv_segment_reconstructs_the_block() {
        let mut block = ColBlock::new(3);
        for j in 0..5 {
            block.push_col(&[j as f32, -(j as f32), 0.5 * j as f32]);
        }
        let msg = KvSegmentMsg::from_block(CacheKey::User(UserId::new(1)), 0, &block);
        let back = msg.to_block();
        assert_eq!(back.rows(), 3);
        assert_eq!(back.len(), 5);
        for r in 0..3 {
            assert_eq!(back.plane(r), block.plane(r), "plane {r}");
        }
    }

    #[test]
    fn wrong_tag_and_bad_payload_are_typed_errors() {
        let frame = ShutdownMsg.to_frame();
        assert!(matches!(
            DispatchMsg::from_frame(&frame),
            Err(NetError::UnknownMsgType(MSG_SHUTDOWN))
        ));
        // Tags 4 and 6–8 are retired: no decoder takes them.
        for tag in [4, 6, 7, 8] {
            let frame = Frame::new(tag, vec![0; 24]);
            let unknown = |r: Result<(), NetError>| r == Err(NetError::UnknownMsgType(tag));
            assert!(unknown(HelloMsg::from_frame(&frame).map(drop)));
            assert!(unknown(DispatchMsg::from_frame(&frame).map(drop)));
            assert!(unknown(CompletionMsg::from_frame(&frame).map(drop)));
            assert!(unknown(ShutdownMsg::from_frame(&frame).map(drop)));
            assert!(unknown(KvSegmentMsg::from_frame(&frame).map(drop)));
        }
        // Truncated dispatch payload.
        let mut frame = DispatchMsg {
            seq: 1,
            arrival_virtual: 0.0,
            suffix_tokens: 1,
            service_virtual: 0.0,
            deadline_rel: None,
        }
        .to_frame();
        frame.payload.truncate(5);
        assert!(matches!(
            DispatchMsg::from_frame(&frame),
            Err(NetError::Truncated { .. })
        ));
        // Trailing bytes.
        let mut frame = ShutdownMsg.to_frame();
        frame.payload.push(0);
        assert!(matches!(
            ShutdownMsg::from_frame(&frame),
            Err(NetError::Decode(_))
        ));
    }
}
