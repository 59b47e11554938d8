//! Property tests over the whole wire vocabulary.
//!
//! Two families:
//!
//! 1. **Roundtrip identity** — for every message type, a randomized
//!    instance encoded to bytes and decoded back compares equal (bitwise
//!    for floats: the codecs ship IEEE bit patterns, so NaNs and -0.0
//!    survive).
//! 2. **Hostile bytes** — truncating an encoded frame at any cut, or
//!    flipping any byte, must yield a typed [`NetError`], never a panic
//!    and never a silently-wrong message of the same type.

use bat_faults::FaultKind;
use bat_kvcache::CacheKey;
use bat_meta::{MetaCommand, ViewChange};
use bat_net::{
    decode_frame, encode_frame, CompletionMsg, DispatchMsg, FaultEventMsg, HelloMsg, KvSegmentMsg,
    MetaCmdMsg, MetaRespMsg, MetaWireResult, NetError, OrphanMsg, ShutdownMsg, WireCodec,
    WireOutcome,
};
use bat_types::{ItemId, RejectReason, UserId, WorkerId};
use proptest::prelude::*;
use proptest::TestRng;

/// Draws an arbitrary f64 bit pattern — includes NaNs, infinities,
/// subnormals, and -0.0, which is the point.
fn any_f64(rng: &mut TestRng) -> f64 {
    f64::from_bits(rng.next_u64())
}

fn any_f32(rng: &mut TestRng) -> f32 {
    f32::from_bits(rng.next_u64() as u32)
}

fn any_key(rng: &mut TestRng) -> CacheKey {
    if rng.next_u64().is_multiple_of(2) {
        CacheKey::User(UserId::new(rng.next_u64()))
    } else {
        CacheKey::Item(ItemId::new(rng.next_u64()))
    }
}

fn any_dispatch(rng: &mut TestRng) -> DispatchMsg {
    DispatchMsg {
        seq: rng.next_u64(),
        arrival_virtual: any_f64(rng),
        suffix_tokens: rng.next_u64(),
        service_virtual: any_f64(rng),
        deadline_rel: if rng.next_u64().is_multiple_of(2) {
            Some(any_f64(rng))
        } else {
            None
        },
    }
}

fn any_outcome(rng: &mut TestRng) -> WireOutcome {
    match rng.next_u64() % 5 {
        0 | 3 => WireOutcome::Completed {
            latency_virtual: any_f64(rng),
            missed: rng.next_u64().is_multiple_of(2),
        },
        1 => WireOutcome::Shed,
        _ => WireOutcome::Rejected(match rng.next_u64() % 3 {
            0 => RejectReason::QueueFull,
            1 => RejectReason::DeadlineInfeasible,
            _ => RejectReason::BrownoutShed,
        }),
    }
}

fn any_fault_kind(rng: &mut TestRng) -> FaultKind {
    let w = |rng: &mut TestRng| WorkerId::new(rng.next_u64() % 64);
    match rng.next_u64() % 10 {
        0 => FaultKind::WorkerCrash(w(rng)),
        1 => FaultKind::WorkerRestart(w(rng)),
        2 => FaultKind::LinkDegrade {
            factor: any_f64(rng),
        },
        3 => FaultKind::LinkRestore,
        4 => FaultKind::MetaStall {
            duration_secs: any_f64(rng),
        },
        5 => FaultKind::MetaCrash((rng.next_u64() % 7) as usize),
        6 => FaultKind::MetaRestart((rng.next_u64() % 7) as usize),
        7 => FaultKind::CutLink {
            a: w(rng),
            b: w(rng),
        },
        8 => FaultKind::HealLink {
            a: w(rng),
            b: w(rng),
        },
        _ => FaultKind::SlowLink {
            a: w(rng),
            b: w(rng),
            factor: any_f64(rng),
        },
    }
}

fn any_meta_cmd(rng: &mut TestRng) -> MetaCommand {
    match rng.next_u64() % 5 {
        0 => MetaCommand::RegisterEntry {
            key: any_key(rng),
            bytes: rng.next_u64(),
        },
        1 => MetaCommand::Evict { key: any_key(rng) },
        2 => MetaCommand::HotnessDelta {
            key: any_key(rng),
            at_ms: rng.next_u64(),
        },
        3 => MetaCommand::View(ViewChange::WorkerCrashed {
            worker: (rng.next_u64() % 64) as usize,
            num_workers: (rng.next_u64() % 64) as usize,
        }),
        _ => MetaCommand::View(ViewChange::WorkerRestarted {
            worker: (rng.next_u64() % 64) as usize,
        }),
    }
}

fn any_meta_result(rng: &mut TestRng) -> MetaWireResult {
    match rng.next_u64() % 5 {
        0 => MetaWireResult::Committed {
            epoch: rng.next_u64(),
            index: rng.next_u64(),
        },
        1 => MetaWireResult::NoQuorum,
        2 => MetaWireResult::NodeDown(rng.next_u64() as u32),
        3 => MetaWireResult::NotLeader {
            current: if rng.next_u64().is_multiple_of(2) {
                Some(rng.next_u64() as u32)
            } else {
                None
            },
        },
        _ => MetaWireResult::Fenced {
            stale_epoch: rng.next_u64(),
            current_epoch: rng.next_u64(),
        },
    }
}

/// Bitwise equality for messages whose floats may be NaN: compare the
/// encoded bytes, which are the floats' bit patterns.
fn assert_roundtrip<M: WireCodec>(msg: &M) {
    let frame = msg.to_frame();
    let bytes = encode_frame(&frame);
    let (decoded, used) = decode_frame(&bytes).expect("well-formed frame must decode");
    assert_eq!(used, bytes.len());
    let back = M::from_frame(&decoded).expect("payload must decode");
    assert_eq!(
        encode_frame(&back.to_frame()),
        bytes,
        "re-encoding must reproduce the exact bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hello_roundtrips(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        assert_roundtrip(&HelloMsg {
            worker: rng.next_u64() as u32,
            scale: any_f64(&mut rng),
            virtual_now: any_f64(&mut rng),
        });
    }

    #[test]
    fn dispatch_roundtrips(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        assert_roundtrip(&any_dispatch(&mut rng));
    }

    #[test]
    fn completion_roundtrips(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        assert_roundtrip(&CompletionMsg {
            worker: rng.next_u64() as u32,
            seq: rng.next_u64(),
            suffix_tokens: rng.next_u64(),
            outcome: any_outcome(&mut rng),
        });
    }

    #[test]
    fn orphan_roundtrips(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        assert_roundtrip(&OrphanMsg {
            worker: rng.next_u64() as u32,
            item: any_dispatch(&mut rng),
        });
    }

    #[test]
    fn shutdown_roundtrips(_seed in 0u64..u64::MAX) {
        assert_roundtrip(&ShutdownMsg);
    }

    #[test]
    fn meta_cmd_roundtrips(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        assert_roundtrip(&MetaCmdMsg {
            seq: rng.next_u64(),
            via: rng.next_u64() as u32,
            cmd: any_meta_cmd(&mut rng),
        });
    }

    #[test]
    fn meta_resp_roundtrips(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        assert_roundtrip(&MetaRespMsg {
            seq: rng.next_u64(),
            result: any_meta_result(&mut rng),
        });
    }

    #[test]
    fn fault_event_roundtrips(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        assert_roundtrip(&FaultEventMsg {
            at_secs: any_f64(&mut rng),
            kind: any_fault_kind(&mut rng),
        });
    }

    #[test]
    fn kv_segment_roundtrips(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let rows = (rng.next_u64() % 8 + 1) as u32;
        let cols = (rng.next_u64() % 32) as u32;
        let n = (rows * cols) as usize;
        let planes: Vec<f32> = (0..n).map(|_| any_f32(&mut rng)).collect();
        assert_roundtrip(&KvSegmentMsg {
            key: any_key(&mut rng),
            layer: rng.next_u64() as u32,
            rows,
            cols,
            planes,
        });
    }

    /// Truncating a valid encoded frame at ANY cut point is a typed error.
    #[test]
    fn truncation_never_panics(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let bytes = encode_frame(&any_dispatch(&mut rng).to_frame());
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(NetError::Truncated { .. }) => {}
                other => panic!("cut {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    /// Flipping any single byte of a valid frame either still decodes to
    /// the same message type's payload length (payload bit flips are the
    /// codec's to catch) or surfaces a typed error — never a panic.
    #[test]
    fn corruption_never_panics(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let msg = any_dispatch(&mut rng);
        let clean = encode_frame(&msg.to_frame());
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 1 << (rng.next_u64() % 8);
            if bytes[i] == clean[i] {
                continue;
            }
            match decode_frame(&bytes) {
                Ok((frame, _)) => {
                    // Header survived (the flip was in the payload): the
                    // typed decoder must not panic either.
                    let _ = DispatchMsg::from_frame(&frame);
                }
                Err(
                    NetError::BadMagic { .. }
                    | NetError::BadVersion { .. }
                    | NetError::BadHeaderCrc { .. }
                    | NetError::FrameTooLarge { .. }
                    | NetError::Truncated { .. }
                    | NetError::Decode(_),
                ) => {}
                Err(other) => panic!("byte {i}: unexpected error {other:?}"),
            }
        }
    }

    /// A random byte soup fed to the stream reader is a typed error.
    #[test]
    fn random_bytes_never_decode_silently(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let n = (rng.next_u64() % 64) as usize;
        let soup: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        // Skip the astronomically-unlikely case of a valid header.
        match decode_frame(&soup) {
            Ok(_) => {}
            Err(e) => {
                // Must be one of the typed variants; Display must not panic.
                let _ = e.to_string();
            }
        }
    }
}
