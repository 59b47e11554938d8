//! The wire vocabulary: every control- and data-plane message the serving
//! runtime exchanges, with hand-rolled fixed-layout codecs.
//!
//! | tag | message | direction | role |
//! |-----|---------|-----------|------|
//! | 1 | [`HelloMsg`] | scheduler → worker | handshake: index + clock base |
//! | 2 | [`DispatchMsg`] | scheduler → worker | one priced job (a round) |
//! | 3 | [`CompletionMsg`] | worker → scheduler | terminal outcome of a job |
//! | 4 | [`OrphanMsg`] | worker → scheduler | job bounced off a killed worker |
//! | 5 | [`ShutdownMsg`] | scheduler → worker | drain and exit |
//! | 6 | [`MetaCmdMsg`] | client → meta host | replicated meta-log command |
//! | 7 | [`MetaRespMsg`] | meta host → client | commit receipt or typed refusal |
//! | 8 | [`FaultEventMsg`] | supervisor → peers | scheduled fault notification |
//! | 9 | [`KvSegmentMsg`] | worker ↔ worker | one packed KV layer, plane-major |
//!
//! Codecs are deliberately explicit (no serde): the byte layout *is* the
//! protocol, floats travel as bit patterns, and every decoder returns a
//! typed [`NetError`] on malformed input instead of panicking.

use crate::error::NetError;
use crate::wire::{put_bool, put_f64, put_opt_f64, put_u32, put_u64, WireCodec, WireReader};
use bat_faults::{FaultEvent, FaultKind};
use bat_kvcache::CacheKey;
use bat_meta::{MetaCommand, MetaError, Receipt, ViewChange};
use bat_tensor::ColBlock;
use bat_types::{ItemId, RejectReason, UserId, WorkerId};

/// Frame tag of [`HelloMsg`].
pub const MSG_HELLO: u8 = 1;
/// Frame tag of [`DispatchMsg`].
pub const MSG_DISPATCH: u8 = 2;
/// Frame tag of [`CompletionMsg`].
pub const MSG_COMPLETION: u8 = 3;
/// Frame tag of [`OrphanMsg`].
pub const MSG_ORPHAN: u8 = 4;
/// Frame tag of [`ShutdownMsg`].
pub const MSG_SHUTDOWN: u8 = 5;
/// Frame tag of [`MetaCmdMsg`].
pub const MSG_META_CMD: u8 = 6;
/// Frame tag of [`MetaRespMsg`].
pub const MSG_META_RESP: u8 = 7;
/// Frame tag of [`FaultEventMsg`].
pub const MSG_FAULT_EVENT: u8 = 8;
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
/// sequence number; completions and orphans echo it so the scheduler can
/// retire the in-flight entry.
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

/// A job handed back unserved by a worker that observed its own kill flag.
/// The scheduler's batch machine has already re-seated that work on a live
/// worker, so the scheduler only retires the frame. Work is never dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrphanMsg {
    /// Index of the (dead) worker bouncing the job.
    pub worker: u32,
    /// The unserved job, verbatim.
    pub item: DispatchMsg,
}

impl WireCodec for OrphanMsg {
    const MSG_TYPE: u8 = MSG_ORPHAN;

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.worker);
        self.item.encode_payload(buf);
    }

    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok(OrphanMsg {
            worker: r.u32()?,
            item: DispatchMsg::decode_payload(r)?,
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

/// One command submitted to the replicated cache-meta group over the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetaCmdMsg {
    /// Client-assigned request sequence number, echoed by the response.
    pub seq: u64,
    /// Replica the client is contacting (for redirect bookkeeping).
    pub via: u32,
    /// The replicated state-machine command.
    pub cmd: MetaCommand,
}

impl WireCodec for MetaCmdMsg {
    const MSG_TYPE: u8 = MSG_META_CMD;

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.seq);
        put_u32(buf, self.via);
        match self.cmd {
            MetaCommand::RegisterEntry { key, bytes } => {
                buf.push(0);
                put_cache_key(buf, key);
                put_u64(buf, bytes);
            }
            MetaCommand::Evict { key } => {
                buf.push(1);
                put_cache_key(buf, key);
            }
            MetaCommand::HotnessDelta { key, at_ms } => {
                buf.push(2);
                put_cache_key(buf, key);
                put_u64(buf, at_ms);
            }
            MetaCommand::View(ViewChange::WorkerCrashed {
                worker,
                num_workers,
            }) => {
                buf.push(3);
                put_u64(buf, worker as u64);
                put_u64(buf, num_workers as u64);
            }
            MetaCommand::View(ViewChange::WorkerRestarted { worker }) => {
                buf.push(4);
                put_u64(buf, worker as u64);
            }
        }
    }

    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let seq = r.u64()?;
        let via = r.u32()?;
        let cmd = match r.u8()? {
            0 => MetaCommand::RegisterEntry {
                key: get_cache_key(r)?,
                bytes: r.u64()?,
            },
            1 => MetaCommand::Evict {
                key: get_cache_key(r)?,
            },
            2 => MetaCommand::HotnessDelta {
                key: get_cache_key(r)?,
                at_ms: r.u64()?,
            },
            3 => MetaCommand::View(ViewChange::WorkerCrashed {
                worker: r.u64()? as usize,
                num_workers: r.u64()? as usize,
            }),
            4 => MetaCommand::View(ViewChange::WorkerRestarted {
                worker: r.u64()? as usize,
            }),
            other => return Err(NetError::Decode(format!("meta command tag {other}"))),
        };
        Ok(MetaCmdMsg { seq, via, cmd })
    }
}

/// Wire form of a meta submission's result: either a commit
/// [`Receipt`] or a typed [`MetaError`] refusal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetaWireResult {
    /// The command committed at this epoch and log index.
    Committed {
        /// Epoch the entry committed under.
        epoch: u64,
        /// Global log index of the committed entry.
        index: u64,
    },
    /// Not enough live replicas acknowledged.
    NoQuorum,
    /// The contacted replica is down.
    NodeDown(u32),
    /// The contacted replica is a follower.
    NotLeader {
        /// The leader to redirect to, when one is known.
        current: Option<u32>,
    },
    /// Epoch fencing rejected a deposed leader's write.
    Fenced {
        /// The deposed leader's stale epoch.
        stale_epoch: u64,
        /// The higher epoch that fenced it.
        current_epoch: u64,
    },
}

impl From<Result<Receipt, MetaError>> for MetaWireResult {
    fn from(r: Result<Receipt, MetaError>) -> Self {
        match r {
            Ok(receipt) => MetaWireResult::Committed {
                epoch: receipt.epoch,
                index: receipt.index as u64,
            },
            Err(MetaError::NoQuorum) => MetaWireResult::NoQuorum,
            Err(MetaError::NodeDown(m)) => MetaWireResult::NodeDown(m as u32),
            Err(MetaError::NotLeader { current }) => MetaWireResult::NotLeader {
                current: current.map(|c| c as u32),
            },
            Err(MetaError::Fenced {
                stale_epoch,
                current_epoch,
            }) => MetaWireResult::Fenced {
                stale_epoch,
                current_epoch,
            },
        }
    }
}

impl From<MetaWireResult> for Result<Receipt, MetaError> {
    fn from(w: MetaWireResult) -> Self {
        match w {
            MetaWireResult::Committed { epoch, index } => Ok(Receipt {
                epoch,
                index: index as usize,
            }),
            MetaWireResult::NoQuorum => Err(MetaError::NoQuorum),
            MetaWireResult::NodeDown(m) => Err(MetaError::NodeDown(m as usize)),
            MetaWireResult::NotLeader { current } => Err(MetaError::NotLeader {
                current: current.map(|c| c as usize),
            }),
            MetaWireResult::Fenced {
                stale_epoch,
                current_epoch,
            } => Err(MetaError::Fenced {
                stale_epoch,
                current_epoch,
            }),
        }
    }
}

/// Response to one [`MetaCmdMsg`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetaRespMsg {
    /// Echo of the request sequence number.
    pub seq: u64,
    /// Commit receipt or typed refusal.
    pub result: MetaWireResult,
}

impl WireCodec for MetaRespMsg {
    const MSG_TYPE: u8 = MSG_META_RESP;

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.seq);
        match self.result {
            MetaWireResult::Committed { epoch, index } => {
                buf.push(0);
                put_u64(buf, epoch);
                put_u64(buf, index);
            }
            MetaWireResult::NoQuorum => buf.push(1),
            MetaWireResult::NodeDown(m) => {
                buf.push(2);
                put_u32(buf, m);
            }
            MetaWireResult::NotLeader { current } => {
                buf.push(3);
                match current {
                    Some(c) => {
                        put_bool(buf, true);
                        put_u32(buf, c);
                    }
                    None => put_bool(buf, false),
                }
            }
            MetaWireResult::Fenced {
                stale_epoch,
                current_epoch,
            } => {
                buf.push(4);
                put_u64(buf, stale_epoch);
                put_u64(buf, current_epoch);
            }
        }
    }

    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let seq = r.u64()?;
        let result = match r.u8()? {
            0 => MetaWireResult::Committed {
                epoch: r.u64()?,
                index: r.u64()?,
            },
            1 => MetaWireResult::NoQuorum,
            2 => MetaWireResult::NodeDown(r.u32()?),
            3 => MetaWireResult::NotLeader {
                current: if r.bool()? { Some(r.u32()?) } else { None },
            },
            4 => MetaWireResult::Fenced {
                stale_epoch: r.u64()?,
                current_epoch: r.u64()?,
            },
            other => return Err(NetError::Decode(format!("meta result tag {other}"))),
        };
        Ok(MetaRespMsg { seq, result })
    }
}

/// A scheduled fault event, as the fault supervisor would broadcast it to
/// remote peers (the sim and thread runtimes consume schedules in-process;
/// multi-node deployments ship them as frames).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEventMsg {
    /// When the fault fires, trace seconds.
    pub at_secs: f64,
    /// What happens.
    pub kind: FaultKind,
}

impl From<FaultEvent> for FaultEventMsg {
    fn from(e: FaultEvent) -> Self {
        FaultEventMsg {
            at_secs: e.at_secs,
            kind: e.kind,
        }
    }
}

impl From<FaultEventMsg> for FaultEvent {
    fn from(m: FaultEventMsg) -> Self {
        FaultEvent {
            at_secs: m.at_secs,
            kind: m.kind,
        }
    }
}

impl WireCodec for FaultEventMsg {
    const MSG_TYPE: u8 = MSG_FAULT_EVENT;

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        put_f64(buf, self.at_secs);
        match self.kind {
            FaultKind::WorkerCrash(w) => {
                buf.push(0);
                put_u64(buf, w.as_u64());
            }
            FaultKind::WorkerRestart(w) => {
                buf.push(1);
                put_u64(buf, w.as_u64());
            }
            FaultKind::LinkDegrade { factor } => {
                buf.push(2);
                put_f64(buf, factor);
            }
            FaultKind::LinkRestore => buf.push(3),
            FaultKind::MetaStall { duration_secs } => {
                buf.push(4);
                put_f64(buf, duration_secs);
            }
            FaultKind::MetaCrash(m) => {
                buf.push(5);
                put_u64(buf, m as u64);
            }
            FaultKind::MetaRestart(m) => {
                buf.push(6);
                put_u64(buf, m as u64);
            }
            FaultKind::CutLink { a, b } => {
                buf.push(7);
                put_u64(buf, a.as_u64());
                put_u64(buf, b.as_u64());
            }
            FaultKind::HealLink { a, b } => {
                buf.push(8);
                put_u64(buf, a.as_u64());
                put_u64(buf, b.as_u64());
            }
            FaultKind::SlowLink { a, b, factor } => {
                buf.push(9);
                put_u64(buf, a.as_u64());
                put_u64(buf, b.as_u64());
                put_f64(buf, factor);
            }
            FaultKind::WorkerDrain(w) => {
                buf.push(10);
                put_u64(buf, w.as_u64());
            }
            FaultKind::WorkerJoin(w) => {
                buf.push(11);
                put_u64(buf, w.as_u64());
            }
        }
    }

    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let at_secs = r.f64()?;
        let kind = match r.u8()? {
            0 => FaultKind::WorkerCrash(WorkerId::new(r.u64()?)),
            1 => FaultKind::WorkerRestart(WorkerId::new(r.u64()?)),
            2 => FaultKind::LinkDegrade { factor: r.f64()? },
            3 => FaultKind::LinkRestore,
            4 => FaultKind::MetaStall {
                duration_secs: r.f64()?,
            },
            5 => FaultKind::MetaCrash(r.u64()? as usize),
            6 => FaultKind::MetaRestart(r.u64()? as usize),
            7 => FaultKind::CutLink {
                a: WorkerId::new(r.u64()?),
                b: WorkerId::new(r.u64()?),
            },
            8 => FaultKind::HealLink {
                a: WorkerId::new(r.u64()?),
                b: WorkerId::new(r.u64()?),
            },
            9 => FaultKind::SlowLink {
                a: WorkerId::new(r.u64()?),
                b: WorkerId::new(r.u64()?),
                factor: r.f64()?,
            },
            10 => FaultKind::WorkerDrain(WorkerId::new(r.u64()?)),
            11 => FaultKind::WorkerJoin(WorkerId::new(r.u64()?)),
            other => return Err(NetError::Decode(format!("fault kind tag {other}"))),
        };
        Ok(FaultEventMsg { at_secs, kind })
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
    use crate::frame::{decode_frame, encode_frame};

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
        roundtrip(&OrphanMsg {
            worker: 2,
            item: DispatchMsg {
                seq: 9,
                arrival_virtual: 0.5,
                suffix_tokens: 64,
                service_virtual: 0.001,
                deadline_rel: None,
            },
        });
        roundtrip(&ShutdownMsg);
        roundtrip(&MetaCmdMsg {
            seq: 5,
            via: 1,
            cmd: MetaCommand::RegisterEntry {
                key: CacheKey::User(UserId::new(77)),
                bytes: 4096,
            },
        });
        roundtrip(&MetaRespMsg {
            seq: 5,
            result: MetaWireResult::Fenced {
                stale_epoch: 2,
                current_epoch: 4,
            },
        });
        roundtrip(&FaultEventMsg {
            at_secs: 12.5,
            kind: FaultKind::SlowLink {
                a: WorkerId::new(0),
                b: WorkerId::new(3),
                factor: 150.0,
            },
        });
        roundtrip(&FaultEventMsg {
            at_secs: 20.0,
            kind: FaultKind::WorkerDrain(WorkerId::new(2)),
        });
        roundtrip(&FaultEventMsg {
            at_secs: 25.0,
            kind: FaultKind::WorkerJoin(WorkerId::new(2)),
        });
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
    fn meta_result_converts_both_ways() {
        let cases: Vec<Result<Receipt, MetaError>> = vec![
            Ok(Receipt {
                epoch: 3,
                index: 17,
            }),
            Err(MetaError::NoQuorum),
            Err(MetaError::NodeDown(2)),
            Err(MetaError::NotLeader { current: Some(1) }),
            Err(MetaError::NotLeader { current: None }),
            Err(MetaError::Fenced {
                stale_epoch: 1,
                current_epoch: 2,
            }),
        ];
        for case in cases {
            let wire: MetaWireResult = case.into();
            let back: Result<Receipt, MetaError> = wire.into();
            assert_eq!(back, case);
        }
    }

    #[test]
    fn wrong_tag_and_bad_payload_are_typed_errors() {
        let frame = ShutdownMsg.to_frame();
        assert!(matches!(
            DispatchMsg::from_frame(&frame),
            Err(NetError::UnknownMsgType(MSG_SHUTDOWN))
        ));
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
